(* Stage 2: optimisation passes over the physical IR.

   Each pass is a total [Ir.rooted -> Ir.rooted] function that preserves
   results BITWISE — the qcheck stage-equivalence suite executes every
   intermediate plan and compares against the unoptimised one. The passes
   reuse the transformation vocabulary of [Ifaq.Rewrite] on the physical
   form: [fuse_filters] is predicate fusion (push_into_sums / factor_out
   applied to guards), [merge_slots] is sharing as structural memoisation
   (memoise_and_hoist), and [dead_slots] is liveness-based elimination.

   Bitwise preservation constrains what a pass may do:

   - [fuse_filters] may hoist a conjunct to the scan level only when EVERY
     slot tests it, and the hoisted test guards the slot program ONLY —
     never the view insertion. The interpreter inserts a row's join key
     into the view BEFORE evaluating any slot filter, so an all-filters-
     false row still creates a zero row; the compiled scan must too.
   - [merge_slots] keeps the FIRST occurrence of each structure, so slot
     order — and with it payload order and float accumulation order — is
     exactly the order the interpreter's canonical-string dedup produces. *)

let c_fused = Obs.counter "lmfao.compile.filters_fused"
let c_merged = Obs.counter "lmfao.compile.slots_merged"
let c_dead = Obs.counter "lmfao.compile.dead_slots"

let remap_outputs remap (r : Ir.rooted) node =
  {
    r with
    Ir.r_node = node;
    r_outputs = Array.map (fun (id, s) -> (id, remap.(s))) r.Ir.r_outputs;
  }

(* ---------- predicate fusion ---------- *)

(* Hoist filter conjuncts shared by EVERY slot of a node into the node's
   scan filter, so they are tested once per row instead of once per slot.
   Purely common-subexpression elimination: the scan filter gates the slot
   program, not the key insertion (see the bitwise note above). *)
let fuse_filters (r : Ir.rooted) : Ir.rooted =
  let rec go (node : Ir.node) : Ir.node =
    let node = { node with Ir.n_children = Array.map go node.Ir.n_children } in
    match Array.to_list node.Ir.n_slots with
    | [] -> node
    | first :: rest ->
        let common =
          List.filter
            (fun c ->
              List.for_all (fun (s : Ir.slot) -> List.mem c s.Ir.s_filters) rest)
            (List.sort_uniq compare first.Ir.s_filters)
        in
        if common = [] then node
        else begin
          Obs.add c_fused (List.length common);
          let strip (s : Ir.slot) =
            {
              s with
              Ir.s_filters =
                List.filter (fun c -> not (List.mem c common)) s.Ir.s_filters;
            }
          in
          {
            node with
            Ir.n_scan_filters = node.Ir.n_scan_filters @ common;
            n_slots = Array.map strip node.Ir.n_slots;
          }
        end
  in
  { r with Ir.r_node = go r.Ir.r_node }

(* ---------- shared-prefix merging ---------- *)

(* Collapse structurally identical slots, bottom-up so that child sharing
   makes parents identical in turn. This rediscovers — on the physical
   form — exactly the sharing the planner's canonical-string dedup finds,
   plus any duplicates that only become visible after filter fusion. *)
let merge_slots (r : Ir.rooted) : Ir.rooted =
  let rec go (node : Ir.node) : Ir.node * int array =
    let merged = Array.map go node.Ir.n_children in
    let children = Array.map fst merged in
    let slots =
      Array.map
        (fun (s : Ir.slot) ->
          {
            s with
            Ir.s_children =
              Array.mapi (fun c cs -> (snd merged.(c)).(cs)) s.Ir.s_children;
          })
        node.Ir.n_slots
    in
    let tbl = Hashtbl.create 16 in
    let remap = Array.make (Array.length slots) (-1) in
    let kept = ref [] in
    let k = ref 0 in
    Array.iteri
      (fun i (s : Ir.slot) ->
        let key = Ir.slot_structure s in
        match Hashtbl.find_opt tbl key with
        | Some j ->
            remap.(i) <- j;
            Obs.incr c_merged
        | None ->
            Hashtbl.add tbl key !k;
            remap.(i) <- !k;
            incr k;
            kept := s :: !kept)
      slots;
    ( {
        node with
        Ir.n_slots = Array.of_list (List.rev !kept);
        n_children = children;
      },
      remap )
  in
  let node, remap = go r.Ir.r_node in
  remap_outputs remap r node

(* ---------- dead-slot elimination ---------- *)

(* Drop slots no output and no live parent slot references. After
   [merge_slots] on a planner-produced tree nothing is usually dead — the
   pass is the safety net that makes the pipeline compositional (any
   front-end producing IR, and any future pass dropping references, stays
   executable without scanning for orphans). *)
let dead_slots (r : Ir.rooted) : Ir.rooted =
  let rec go (node : Ir.node) (live : bool array) : Ir.node * int array =
    let remap = Array.make (Array.length node.Ir.n_slots) (-1) in
    let kept = ref [] in
    let k = ref 0 in
    Array.iteri
      (fun i s ->
        if live.(i) then begin
          remap.(i) <- !k;
          incr k;
          kept := s :: !kept
        end
        else Obs.incr c_dead)
      node.Ir.n_slots;
    let kept = Array.of_list (List.rev !kept) in
    let child_live =
      Array.map
        (fun (c : Ir.node) -> Array.make (Array.length c.Ir.n_slots) false)
        node.Ir.n_children
    in
    Array.iter
      (fun (s : Ir.slot) ->
        Array.iteri (fun c cs -> child_live.(c).(cs) <- true) s.Ir.s_children)
      kept;
    let merged =
      Array.mapi (fun c child -> go child child_live.(c)) node.Ir.n_children
    in
    let kept =
      Array.map
        (fun (s : Ir.slot) ->
          {
            s with
            Ir.s_children =
              Array.mapi (fun c cs -> (snd merged.(c)).(cs)) s.Ir.s_children;
          })
        kept
    in
    ( { node with Ir.n_slots = kept; n_children = Array.map fst merged },
      remap )
  in
  let root_live = Array.make (Array.length r.Ir.r_node.Ir.n_slots) false in
  Array.iter (fun (_, s) -> root_live.(s) <- true) r.Ir.r_outputs;
  let node, remap = go r.Ir.r_node root_live in
  remap_outputs remap r node

(* ---------- the pipeline ---------- *)

let all ~share =
  [
    ("fuse-filters", fuse_filters);
    ("merge-slots", if share then merge_slots else fun r -> r);
    ("dead-slots", dead_slots);
  ]

let pipeline ?(share = true) (r : Ir.rooted) : Ir.rooted =
  List.fold_left (fun r (_, pass) -> pass r) r (all ~share)
