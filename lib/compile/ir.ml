(* The typed physical IR of the staged compiler (stage 1 output).

   A [rooted] tree describes one LMFAO rooted decomposition as pure data:
   which relation each view scans, the key shape it groups by and the key
   shapes it probes its children with, and per slot the term product,
   group-by columns, residual filters and child-slot wiring. Everything is
   resolved to column positions and annotated with the column
   representation observed at lowering time, so the executor (stage 3) can
   emit monomorphic accessors and treat any representation drift as an
   explicit specialization fallback.

   The IR is first-order and closure-free on purpose: structural equality
   is meaningful (the shared-prefix merging pass dedups slots with
   polymorphic equality) and plans can be printed, diffed and cached. *)

open Relational

(* Column representation as observed when the plan was lowered. The
   executor re-checks against the live [Column.data] and falls back to the
   generic boxed reader — counted in [lmfao.compile.fallbacks] — when the
   representation has drifted (e.g. a column promoted by later deltas). *)
type rep = Rint | Rfloat | Rboxed

(* Single-attribute filter conjuncts, mirroring [Predicate.t] with
   attribute names resolved to column positions. Compiled against the
   live column representation exactly like [Predicate.compile_cols]. *)
type filter =
  | FTrue
  | FGe of int * Value.t
  | FLt of int * Value.t
  | FEq of int * Value.t
  | FIn of int * Value.t list
  | FNot of filter
  | FAnd of filter * filter
  | FOr of filter * filter
  | FAdditive of (int * float) list * float

type term = { t_pos : int; t_power : int; t_rep : rep }

(* A join key: the column positions packed by [Keypack], with their
   observed representations and the packed field width at this arity. *)
type key_shape = { k_positions : int array; k_reps : rep array; k_width : int }

type slot = {
  s_key : string; (* provenance: slot key of the first logical partial *)
  s_terms : term array;
  s_groups : (string * int) array; (* owned group-by (attr, position) *)
  s_filters : filter list; (* residual conjuncts, tested per row *)
  s_children : int array; (* per child: slot index in that child *)
  s_scalar : bool;
}

type node = {
  n_rel : string; (* resolved against the live database at bind time *)
  n_key : key_shape;
  n_child_keys : key_shape array;
  n_scan_filters : filter list; (* conjuncts common to EVERY slot, hoisted *)
  n_slots : slot array;
  n_children : node array;
}

type rooted = {
  r_root : string;
  r_node : node;
  r_outputs : (string * int) array; (* aggregate id -> root slot index *)
}

(* The part of a slot that determines what it computes. Two slots with
   equal structure necessarily hold equal payloads after any scan, so the
   merge pass collapses them; [s_key] is provenance only and excluded. *)
let slot_structure (s : slot) =
  (s.s_terms, s.s_groups, s.s_filters, s.s_children, s.s_scalar)

(* ---------- printing (debugging and DESIGN examples) ---------- *)

let rep_name = function Rint -> "int" | Rfloat -> "float" | Rboxed -> "boxed"

let rec filter_to_string = function
  | FTrue -> "true"
  | FGe (p, v) -> Printf.sprintf "c%d >= %s" p (Value.to_string v)
  | FLt (p, v) -> Printf.sprintf "c%d < %s" p (Value.to_string v)
  | FEq (p, v) -> Printf.sprintf "c%d = %s" p (Value.to_string v)
  | FIn (p, vs) ->
      Printf.sprintf "c%d in (%s)" p
        (String.concat "," (List.map Value.to_string vs))
  | FNot f -> Printf.sprintf "not (%s)" (filter_to_string f)
  | FAnd (f, g) ->
      Printf.sprintf "(%s and %s)" (filter_to_string f) (filter_to_string g)
  | FOr (f, g) ->
      Printf.sprintf "(%s or %s)" (filter_to_string f) (filter_to_string g)
  | FAdditive (ts, c) ->
      Printf.sprintf "%s > %g"
        (String.concat " + "
           (List.map (fun (p, w) -> Printf.sprintf "%g*c%d" w p) ts))
        c

let key_to_string (k : key_shape) =
  Printf.sprintf "[%s]@%dbit"
    (String.concat ","
       (Array.to_list
          (Array.mapi
             (fun i p -> Printf.sprintf "c%d:%s" p (rep_name k.k_reps.(i)))
             k.k_positions)))
    k.k_width

let slot_to_string (s : slot) =
  let terms =
    String.concat "*"
      (Array.to_list
         (Array.map
            (fun t ->
              if t.t_power = 1 then
                Printf.sprintf "c%d:%s" t.t_pos (rep_name t.t_rep)
              else
                Printf.sprintf "c%d:%s^%d" t.t_pos (rep_name t.t_rep) t.t_power)
            s.s_terms))
  in
  let terms = if terms = "" then "1" else terms in
  let groups =
    match s.s_groups with
    | [||] -> ""
    | g ->
        " by "
        ^ String.concat ","
            (Array.to_list (Array.map (fun (a, p) -> Printf.sprintf "%s:c%d" a p) g))
  in
  let filters =
    match s.s_filters with
    | [] -> ""
    | fs -> " if " ^ String.concat " && " (List.map filter_to_string fs)
  in
  let children =
    match s.s_children with
    | [||] -> ""
    | cs ->
        " * "
        ^ String.concat " * "
            (Array.to_list
               (Array.mapi (fun c slot -> Printf.sprintf "child%d.s%d" c slot) cs))
  in
  Printf.sprintf "%s(%s%s)%s%s"
    (if s.s_scalar then "sum" else "gsum")
    terms filters children groups

let rec node_lines indent (n : node) =
  let pad = String.make indent ' ' in
  let scan_filters =
    match n.n_scan_filters with
    | [] -> ""
    | fs -> " where " ^ String.concat " && " (List.map filter_to_string fs)
  in
  (Printf.sprintf "%sscan %s key %s%s" pad n.n_rel (key_to_string n.n_key)
     scan_filters
  :: Array.to_list
       (Array.mapi
          (fun i s -> Printf.sprintf "%s  s%d: %s" pad i (slot_to_string s))
          n.n_slots))
  @ List.concat_map (node_lines (indent + 2)) (Array.to_list n.n_children)

let to_string (r : rooted) =
  String.concat "\n"
    ((Printf.sprintf "root %s -> %s" r.r_root
        (String.concat ","
           (Array.to_list
              (Array.map (fun (id, s) -> Printf.sprintf "%s:s%d" id s) r.r_outputs))))
    :: node_lines 2 r.r_node)
