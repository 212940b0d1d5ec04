(* Stage 3: bind a physical IR plan to a live database and run it.

   Binding happens once per node per execution. Relations are resolved by
   name, key extractors and filters are compiled against the live columns,
   and the node's slots become one flat slot program: per slot, int arrays
   give its term registers and powers, its child factors (child index and
   that child's payload index), its payload index and its filter. Each
   chunk binds a register file, a [float array] with one register per
   column any term reads, loaded once per row by matching on
   [Column.data]. One loop then runs every slot of the row against the
   registers with an unboxed local accumulator, so a scalar slot costs no
   allocation and no closure call; grouped slots compute their product the
   same way and hand it to [accumulate_grouped].

   BIT-IDENTITY CONTRACT: this executor must produce results bitwise
   equal to [Lmfao.Engine] on the same logical plan. Float operations
   happen in exactly the interpreter's order — term products are
   left-associated starting from 1.0, child scalars multiply in child
   order after the terms, slots accumulate in slot-array order, rows are
   inserted into the view before any filter is tested, grouped
   accumulation replicates [Engine.accumulate_grouped] verbatim, and
   parallel scans use the same deterministic [Pool.parallel_chunks]
   decomposition and merge order. The differential qcheck suite holds
   this line. *)

open Relational
module Spec = Aggregates.Spec

type options = Lmfao.Engine.options

(* Sorted-assignment grouped accumulator: the k-relation payload
   ([Faggregate.Grouped] over floats) specialised to flat sorted arrays.
   Every operation replicates the ring's fold order EXACTLY — [KMap] folds
   ascending in [Key.compare] order, so each per-key float addition happens
   in the same sequence as the interpreter's map-based path, keeping
   results bitwise equal while dropping the balanced-tree overhead (and
   its allocation) from the per-tuple inner loop. *)
module Ga = struct
  type key = (string * Value.t) list

  (* replica of [Faggregate.Grouped.Key.compare] *)
  let key_compare (a : key) (b : key) =
    let rec go a b =
      match (a, b) with
      | [], [] -> 0
      | [], _ -> -1
      | _, [] -> 1
      | (xa, va) :: ra, (xb, vb) :: rb ->
          let c = compare xa xb in
          if c <> 0 then c
          else
            let c = Value.compare va vb in
            if c <> 0 then c else go ra rb
    in
    go a b

  type t = {
    mutable keys : key array; (* ascending in [key_compare]; [len] used *)
    mutable vals : float array;
    mutable len : int;
  }

  let create () = { keys = [||]; vals = [||]; len = 0 }
  let singleton k v = { keys = [| k |]; vals = [| v |]; len = 1 }

  (* index of [k], or [-(insertion point) - 1] when absent *)
  let rec search t k lo hi =
    if lo > hi then -lo - 1
    else
      let mid = (lo + hi) / 2 in
      let c = key_compare k t.keys.(mid) in
      if c = 0 then mid
      else if c < 0 then search t k lo (mid - 1)
      else search t k (mid + 1) hi

  let insert t pos k v =
    if t.len = Array.length t.keys then begin
      let cap = max 4 (2 * t.len) in
      let ks = Array.make cap [] and vs = Array.make cap 0.0 in
      Array.blit t.keys 0 ks 0 t.len;
      Array.blit t.vals 0 vs 0 t.len;
      t.keys <- ks;
      t.vals <- vs
    end;
    Array.blit t.keys pos t.keys (pos + 1) (t.len - pos);
    Array.blit t.vals pos t.vals (pos + 1) (t.len - pos);
    t.keys.(pos) <- k;
    t.vals.(pos) <- v;
    t.len <- t.len + 1

  (* [KMap.update k (None -> v | Some v0 -> v0 +. v)] *)
  let bump t k v =
    let i = search t k 0 (t.len - 1) in
    if i >= 0 then t.vals.(i) <- t.vals.(i) +. v else insert t (-i - 1) k v

  (* [KMap.union (fun _ x y -> Some (x +. y))] with x from [a], y from
     [b], merged into [a] in place *)
  let add_into (a : t) (b : t) =
    if b.len <> 0 then
      if a.len = 0 then begin
        a.keys <- Array.sub b.keys 0 b.len;
        a.vals <- Array.sub b.vals 0 b.len;
        a.len <- b.len
      end
      else begin
        let ks = Array.make (a.len + b.len) [] in
        let vs = Array.make (a.len + b.len) 0.0 in
        let i = ref 0 and j = ref 0 and n = ref 0 in
        while !i < a.len && !j < b.len do
          let c = key_compare a.keys.(!i) b.keys.(!j) in
          if c = 0 then begin
            ks.(!n) <- a.keys.(!i);
            vs.(!n) <- a.vals.(!i) +. b.vals.(!j);
            incr i;
            incr j
          end
          else if c < 0 then begin
            ks.(!n) <- a.keys.(!i);
            vs.(!n) <- a.vals.(!i);
            incr i
          end
          else begin
            ks.(!n) <- b.keys.(!j);
            vs.(!n) <- b.vals.(!j);
            incr j
          end;
          incr n
        done;
        while !i < a.len do
          ks.(!n) <- a.keys.(!i);
          vs.(!n) <- a.vals.(!i);
          incr i;
          incr n
        done;
        while !j < b.len do
          ks.(!n) <- b.keys.(!j);
          vs.(!n) <- b.vals.(!j);
          incr j;
          incr n
        done;
        a.keys <- ks;
        a.vals <- vs;
        a.len <- !n
      end

  (* replica of [Faggregate.Grouped.merge_keys] *)
  let merge_keys a b = List.sort (fun (x, _) (y, _) -> compare x y) (a @ b)

  (* replica of [Faggregate.Grouped.mul]: both folds ascending, each
     product bumped into the accumulator in generation order. Assignments
     cover disjoint variable sets, so merging with the empty key is the
     identity (the ring's fst-only stable sort of an already-sorted
     assignment). *)
  let mul (a : t) (b : t) : t =
    let acc = create () in
    for i = 0 to a.len - 1 do
      let ka = a.keys.(i) and va = a.vals.(i) in
      for j = 0 to b.len - 1 do
        let kb = b.keys.(j) in
        let k =
          match (ka, kb) with
          | [], _ -> kb
          | _, [] -> ka
          | _ -> merge_keys ka kb
        in
        bump acc k (va *. b.vals.(j))
      done
    done;
    acc

  let bindings (t : t) = List.init t.len (fun i -> (t.keys.(i), t.vals.(i)))
end

type row = { sc : float array; gr : Ga.t array }
type view = row Keypack.Hybrid.t

(* Specialization fallbacks: boxed or representation-drifted columns, and
   grouped (k-relation valued) slots that use the generic map path. *)
let c_fallbacks = Obs.counter "lmfao.compile.fallbacks"
let c_tuples = Obs.counter "lmfao.compile.tuples_scanned"

let merge_rows (a : row) (b : row) =
  Array.iteri (fun i v -> a.sc.(i) <- a.sc.(i) +. v) b.sc;
  Array.iteri (fun i v -> Ga.add_into a.gr.(i) v) b.gr

let merge_views (a : view) (b : view) : view =
  Keypack.Hybrid.iter
    (fun key row_b ->
      match Keypack.Hybrid.find_opt a key with
      | Some row_a -> merge_rows row_a row_b
      | None -> Keypack.Hybrid.add a key row_b)
    b;
  a

(* ---------- representation checks ---------- *)

let live_rep (cols : Column.t array) pos : Ir.rep =
  match Column.data cols.(pos) with
  | Column.Ints _ -> Ir.Rint
  | Column.Floats _ -> Ir.Rfloat
  | Column.Boxed _ -> Ir.Rboxed

(* ---------- filter compilation ---------- *)

(* Mirror of [Predicate.compile_cols], driven by the IR's positions. The
   generic arms preserve [Value.compare]/[Value.equal] semantics for
   boxed or cross-typed columns. *)
let rec compile_filter (cols : Column.t array) (f : Ir.filter) : int -> bool =
  match f with
  | Ir.FTrue -> fun _ -> true
  | Ir.FGe (p, c) -> (
      let cl = cols.(p) in
      match (Column.data cl, c) with
      | Column.Ints arr, Value.Int x -> fun i -> arr.(i) >= x
      | Column.Floats arr, Value.Float x -> fun i -> arr.(i) >= x
      | _ -> fun i -> Value.compare (Column.get cl i) c >= 0)
  | Ir.FLt (p, c) -> (
      let cl = cols.(p) in
      match (Column.data cl, c) with
      | Column.Ints arr, Value.Int x -> fun i -> arr.(i) < x
      | Column.Floats arr, Value.Float x -> fun i -> arr.(i) < x
      | _ -> fun i -> Value.compare (Column.get cl i) c < 0)
  | Ir.FEq (p, c) -> (
      let cl = cols.(p) in
      match (Column.data cl, c) with
      | Column.Ints arr, Value.Int x -> fun i -> arr.(i) = x
      | Column.Floats arr, Value.Float x -> fun i -> arr.(i) = x
      | _ -> fun i -> Value.equal (Column.get cl i) c)
  | Ir.FIn (p, cs) -> (
      let cl = cols.(p) in
      match Column.data cl with
      | Column.Ints arr
        when List.for_all (function Value.Int _ -> true | _ -> false) cs ->
          let xs = List.map Value.to_int cs in
          fun i -> List.mem arr.(i) xs
      | _ -> fun i -> List.exists (Value.equal (Column.get cl i)) cs)
  | Ir.FNot f ->
      let g = compile_filter cols f in
      fun i -> not (g i)
  | Ir.FAnd (f, g) ->
      let cf = compile_filter cols f and cg = compile_filter cols g in
      fun i -> cf i && cg i
  | Ir.FOr (f, g) ->
      let cf = compile_filter cols f and cg = compile_filter cols g in
      fun i -> cf i || cg i
  | Ir.FAdditive (ts, c) ->
      let compiled = List.map (fun (p, w) -> (cols.(p), w)) ts in
      fun i ->
        List.fold_left
          (fun acc (cl, w) -> acc +. (w *. Column.float_at cl i))
          0.0 compiled
        > c

let compile_filters cols = function
  | [] -> fun _ -> true
  | [ f ] -> compile_filter cols f
  | fs ->
      let compiled = List.map (compile_filter cols) fs in
      fun i -> List.for_all (fun f -> f i) compiled

(* ---------- grouped accumulation (generic path) ---------- *)

(* Replica of [Engine.accumulate_grouped] over the sorted-array payload:
   scalar children fold into the float coefficient, grouped children
   multiply as k-relations, the group assignment boxes one cell per
   attribute. Mutates [acc] in place; the float-op sequence per result key
   is the interpreter's. *)
let accumulate_grouped (groups : (string * int) array)
    (child_refs : (int * bool) array) (cols : Column.t array) i local
    (child_rows : row array) (acc : Ga.t) : unit =
  let coeff = ref local in
  let grouped = ref [] in
  Array.iteri
    (fun c r ->
      let idx, is_scalar = child_refs.(c) in
      if is_scalar then coeff := !coeff *. r.sc.(idx)
      else grouped := r.gr.(idx) :: !grouped)
    child_rows;
  let assignment =
    match groups with
    | [| (a, pos) |] -> [ (a, Column.get cols.(pos) i) ]
    | groups ->
        List.sort compare
          (Array.to_list
             (Array.map (fun (a, pos) -> (a, Column.get cols.(pos) i)) groups))
  in
  match !grouped with
  | [] -> Ga.bump acc assignment !coeff
  | [ g ] when assignment = [] ->
      (* the hot root shape: no local groups, one grouped child.
         [mul (singleton [] coeff) g] then the ascending fold into [acc]
         collapses to bumping each coeff·entry directly — the same
         additions, per key, in the same ascending order *)
      let c = !coeff in
      for j = 0 to g.Ga.len - 1 do
        Ga.bump acc g.Ga.keys.(j) (c *. g.Ga.vals.(j))
      done
  | gs ->
      let m = ref (Ga.singleton assignment !coeff) in
      List.iter (fun g -> m := Ga.mul !m g) gs;
      (* [KMap.fold bump]: ascending over the product, bumped into acc *)
      let m = !m in
      for k = 0 to m.Ga.len - 1 do
        Ga.bump acc m.Ga.keys.(k) m.Ga.vals.(k)
      done

(* ---------- node execution ---------- *)

(* Payload layout: scalars and grouped partials counted separately in slot
   order — identical to the interpreter's assignment. *)
let payload_map (slots : Ir.slot array) : (int * bool) array * int * int =
  let ns = ref 0 and ng = ref 0 in
  let m =
    Array.map
      (fun (s : Ir.slot) ->
        if s.Ir.s_scalar then begin
          incr ns;
          (!ns - 1, true)
        end
        else begin
          incr ng;
          (!ng - 1, false)
        end)
      slots
  in
  (m, !ns, !ng)

(* Count specialization fallbacks for one node binding: grouped slots (map
   path) and columns whose live representation is boxed or has drifted
   from what the plan was specialised for. *)
let count_fallbacks (node : Ir.node) cols =
  Array.iter
    (fun (s : Ir.slot) ->
      if not s.Ir.s_scalar then Obs.incr c_fallbacks;
      Array.iter
        (fun (t : Ir.term) ->
          let live = live_rep cols t.Ir.t_pos in
          if live = Ir.Rboxed || live <> t.Ir.t_rep then Obs.incr c_fallbacks)
        s.Ir.s_terms)
    node.Ir.n_slots

(* The slots of a node as one flat program, in slot order. Slot [k]
   multiplies registers [t_reg] raised to [t_pow] over [t_off.(k)] ..
   [t_off.(k + 1) - 1]; a scalar slot then multiplies child scalars, the
   payload scalar [c_idx] of child [c_child], over [c_off.(k)] ..
   [c_off.(k + 1) - 1]. [p_idx.(k)] is the slot's payload index and
   [filtered.(k)] says whether it has a residual filter. Register [r] holds
   the column at position [regs.(r)]. Only positions live here; the columns
   themselves are bound per chunk. *)
type program = {
  regs : int array;
  t_off : int array;
  t_reg : int array;
  t_pow : int array;
  c_off : int array;
  c_child : int array;
  c_idx : int array;
  p_idx : int array;
  scalar : bool array;
  filtered : bool array;
}

let program (slots : Ir.slot array) (payload : (int * bool) array)
    (child_refs : (int * bool) array array) : program =
  let terms = Array.map (fun (s : Ir.slot) -> s.Ir.s_terms) slots in
  let regs =
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map
            (fun ts -> List.map (fun (t : Ir.term) -> t.Ir.t_pos) (Array.to_list ts))
            (Array.to_list terms)))
  in
  let rec reg_of pos r = if regs.(r) = pos then r else reg_of pos (r + 1) in
  (* only scalar slots multiply child scalars in the loop; grouped slots
     hand their children to [accumulate_grouped] *)
  let factors =
    Array.mapi
      (fun k (s : Ir.slot) ->
        if s.Ir.s_scalar then Array.mapi (fun c (idx, _) -> (c, idx)) child_refs.(k)
        else [||])
      slots
  in
  let offsets rows =
    let off = Array.make (Array.length rows + 1) 0 in
    Array.iteri (fun k row -> off.(k + 1) <- off.(k) + Array.length row) rows;
    off
  in
  let flat f rows = Array.concat (Array.to_list (Array.map (Array.map f) rows)) in
  {
    regs;
    t_off = offsets terms;
    t_reg = flat (fun (t : Ir.term) -> reg_of t.Ir.t_pos 0) terms;
    t_pow = flat (fun (t : Ir.term) -> t.Ir.t_power) terms;
    c_off = offsets factors;
    c_child = flat fst factors;
    c_idx = flat snd factors;
    p_idx = Array.map fst payload;
    scalar = Array.map snd payload;
    filtered = Array.map (fun (s : Ir.slot) -> s.Ir.s_filters <> []) slots;
  }

let rec compute ~(options : options) (db : Database.t) (node : Ir.node) :
    view * (int * bool) array =
  Obs.with_span ("lmfao.compile.view:" ^ node.Ir.n_rel) (fun () ->
      compute_node ~options db node)

and compute_node ~options db (node : Ir.node) : view * (int * bool) array =
  let children = Array.to_list node.Ir.n_children in
  let kids =
    if options.Lmfao.Engine.parallel && List.length children > 1 then
      Util.Pool.parallel_tasks
        (List.map (fun c () -> compute ~options db c) children)
    else List.map (compute ~options db) children
  in
  let child_views = Array.of_list (List.map fst kids) in
  let child_payloads = Array.of_list (List.map snd kids) in
  let rel = Database.relation db node.Ir.n_rel in
  let stream = Database.stream db node.Ir.n_rel in
  let n = Relation.cardinality rel in
  let n_children = Array.length child_views in
  let n_slots = Array.length node.Ir.n_slots in
  let payload, payload_scalars, payload_grouped = payload_map node.Ir.n_slots in
  (* per slot: the child payload indexes it multiplies or merges *)
  let child_refs =
    Array.map
      (fun (s : Ir.slot) ->
        Array.mapi (fun c cs -> child_payloads.(c).(cs)) s.Ir.s_children)
      node.Ir.n_slots
  in
  count_fallbacks node (Relation.columns rel);
  let prog = program node.Ir.n_slots payload child_refs in
  let n_regs = Array.length prog.regs in
  (* [scan_into] is invoked once per chunk — a parallel slice of the
     resident relation, or one streamed page chunk. Everything bound to
     columns (register sources, key extractors, filters) and the register
     file itself are made inside against THIS relation's live columns, so
     concurrent chunks never share mutable state and streamed chunks bind
     to their own pages. Binding is O(slots), amortised over a chunk. *)
  let scan_into rel view lo len =
    Obs.add c_tuples len;
    ignore (Relation.scan rel);
    let cols = Relation.columns rel in
    let own_key = Relation.extractor rel node.Ir.n_key.Ir.k_positions in
    let child_key =
      Array.map
        (fun (k : Ir.key_shape) -> Relation.extractor rel k.Ir.k_positions)
        node.Ir.n_child_keys
    in
    let scan_ok = compile_filters cols node.Ir.n_scan_filters in
    let filters =
      Array.map (fun (s : Ir.slot) -> compile_filters cols s.Ir.s_filters) node.Ir.n_slots
    in
    let src = Array.map (fun pos -> Column.data cols.(pos)) prog.regs in
    let reg = Array.make n_regs 0.0 in
    let { t_off; t_reg; t_pow; c_off; c_child; c_idx; p_idx; scalar; filtered; _ } =
      prog
    in
    let child_rows = Array.make n_children { sc = [||]; gr = [||] } in
    for i = lo to lo + len - 1 do
      (* probe all children; a missing partner voids the row entirely *)
      let rec probe c =
        if c = n_children then true
        else
          match
            Keypack.Hybrid.find_opt child_views.(c) (child_key.(c) i)
          with
          | Some r ->
              child_rows.(c) <- r;
              probe (c + 1)
          | None -> false
      in
      if probe 0 then begin
        let key = own_key i in
        (* the row is inserted BEFORE any filter runs: an all-filters-false
           row still creates a zero row, as in the interpreter *)
        let acc_row =
          match Keypack.Hybrid.find_opt view key with
          | Some r -> r
          | None ->
              let r =
                {
                  sc = Array.make payload_scalars 0.0;
                  (* fresh accumulators: [Ga.t] is mutable, never shared *)
                  gr = Array.init payload_grouped (fun _ -> Ga.create ());
                }
              in
              Keypack.Hybrid.add view key r;
              r
        in
        if scan_ok i then begin
          (* load the register file; semantics are [Column.float_at]. Rows
             stay within the cardinality, which the column capacity bounds,
             so the unsafe reads are in range *)
          for r = 0 to n_regs - 1 do
            Array.unsafe_set reg r
              (match Array.unsafe_get src r with
              | Column.Floats a -> Array.unsafe_get a i
              | Column.Ints a -> float_of_int (Array.unsafe_get a i)
              | Column.Boxed a -> Value.to_float (Array.unsafe_get a i))
          done;
          for k = 0 to n_slots - 1 do
            if
              (not (Array.unsafe_get filtered k)) || (Array.unsafe_get filters k) i
            then begin
              let local = ref 1.0 in
              for t = Array.unsafe_get t_off k to Array.unsafe_get t_off (k + 1) - 1 do
                let x = Array.unsafe_get reg (Array.unsafe_get t_reg t) in
                for _ = 1 to Array.unsafe_get t_pow t do
                  local := !local *. x
                done
              done;
              let p = Array.unsafe_get p_idx k in
              if Array.unsafe_get scalar k then begin
                for c = Array.unsafe_get c_off k to Array.unsafe_get c_off (k + 1) - 1 do
                  local :=
                    !local
                    *. (Array.unsafe_get child_rows (Array.unsafe_get c_child c)).sc.(
                       Array.unsafe_get c_idx c)
                done;
                acc_row.sc.(p) <- acc_row.sc.(p) +. !local
              end
              else
                accumulate_grouped node.Ir.n_slots.(k).Ir.s_groups child_refs.(k) cols i
                  !local child_rows acc_row.gr.(p)
            end
          done
        end
      end
    done
  in
  let view =
    match stream with
    | Some chunks ->
        (* Out-of-core: sequential page chunks into ONE view, in global row
           order — the interpreter's sequential float-op sequence, hence
           bit-identical. Parallel chunking stays off on this path. *)
        let view : view = Keypack.Hybrid.create 256 in
        chunks (fun chunk ->
            scan_into chunk view 0 (Relation.cardinality chunk));
        view
    | None ->
        if
          options.Lmfao.Engine.parallel
          && n > options.Lmfao.Engine.chunk_threshold
        then
          Util.Pool.parallel_chunks n
            (fun lo len ->
              let view : view = Keypack.Hybrid.create 256 in
              scan_into rel view lo len;
              view)
            ~combine:(fun acc v ->
              match acc with None -> Some v | Some a -> Some (merge_views a v))
            ~zero:None
          |> Option.value ~default:(Keypack.Hybrid.create 1)
        else begin
          let view : view = Keypack.Hybrid.create 256 in
          scan_into rel view 0 n;
          view
        end
  in
  (view, payload)

(* ---------- rooted execution ---------- *)

let compute_rooted ~options db (r : Ir.rooted) : (string * Spec.result) list =
  Obs.with_span ("lmfao.compile.root:" ^ r.Ir.r_root) @@ fun () ->
  let view, payload = compute ~options db r.Ir.r_node in
  (* the root view has the single empty key, which packs as [P 0] *)
  let row = Keypack.Hybrid.find_opt view (Keypack.P 0) in
  Array.to_list
    (Array.map
       (fun (id, slot) ->
         let p_idx, scalar = payload.(slot) in
         let result =
           match row with
           | None -> if scalar then [ ([], 0.0) ] else []
           | Some r ->
               if scalar then [ ([], r.sc.(p_idx)) ]
               else Ga.bindings r.gr.(p_idx)
         in
         (id, result))
       r.Ir.r_outputs)
