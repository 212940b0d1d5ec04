(* The staged-compilation engine: an [Aggregates.Engine_intf.S]
   implementation ("lmfao-compiled") that lowers the LMFAO logical plan
   through the typed IR (stage 1), optimises it (stage 2) and executes the
   specialised closures (stage 3). It is the one aggregate path of the
   learners ([Ml]) and of [Serve]; the interpreter ([Lmfao.Engine]) stays
   as the independent oracle it is tested against.

   Compiled plans are cached globally, keyed by [Batch.fingerprint]. A hit
   must also match the cached batch structurally (a CRC-32 key can
   collide) and revalidate a cheap plan signature (schema shape, options,
   and the multi-root assignment, which depends on relation CARDINALITIES
   and so can drift as data changes); on any mismatch the batch is
   recompiled. That keeps the engine bit-identical to a fresh interpreter
   run even when deltas have shifted which relation a pure count roots at.
   Every decision-tree node passes through the cache, so it is bounded:
   [cache_capacity] entries, least recently used evicted first.

   Cyclic schemas fall back to the interpreter (which materialises the
   join with the WCOJ engine), counted in [lmfao.compile.cyclic]. *)

open Relational
module Plan = Lmfao.Plan
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch

type options = Lmfao.Engine.options

let default_options = Lmfao.Engine.default_options

type compiled = {
  signature : string; (* plan signature the cache revalidates against *)
  options : options;
  groups : Ir.rooted array; (* one rooted plan per multi-root group *)
}

let c_plans = Obs.counter "lmfao.compile.plans"
let c_cache_hits = Obs.counter "lmfao.compile.cache_hits"
let c_cyclic = Obs.counter "lmfao.compile.cyclic"

let plan_options (o : options) ~share =
  { Plan.share; multi_root = o.Lmfao.Engine.multi_root }

(* Everything the lowered plans depend on besides the batch itself: the
   schema shape (relation names, attribute order) and the root
   assignment. Cheap to recompute — no scans, just the join tree and the
   per-aggregate root policy. Raises [Join_tree.Cyclic]. *)
let signature_of (options : options) (db : Database.t) (batch : Batch.t) :
    string =
  let popts = plan_options options ~share:options.Lmfao.Engine.share in
  let _jt, groups = Plan.group_by_root popts db batch in
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "share=%b;multi=%b|" options.Lmfao.Engine.share
       options.Lmfao.Engine.multi_root);
  List.iter
    (fun r ->
      Buffer.add_string b (Relation.name r);
      Buffer.add_char b '(';
      List.iter
        (fun a ->
          Buffer.add_string b a;
          Buffer.add_char b ',')
        (Schema.names (Relation.schema r));
      Buffer.add_string b ");")
    (Database.relations db);
  List.iter
    (fun (root, specs) ->
      Buffer.add_string b root;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int (List.length specs));
      Buffer.add_char b ';')
    groups;
  Buffer.contents b

(* Compile the batch: plan unshared (one slot per aggregate), lower each
   rooted group, and let the pass pipeline rediscover sharing on the
   physical form. Raises [Join_tree.Cyclic]. *)
let compile ?(options = default_options) (db : Database.t) (batch : Batch.t) :
    compiled =
  Obs.with_span "lmfao.compile.plan" @@ fun () ->
  Obs.incr c_plans;
  let popts = plan_options options ~share:false in
  let jt, groups = Plan.group_by_root popts db batch in
  let stats = Plan.fresh_stats () in
  let lowered =
    List.filter_map
      (fun (root, specs) ->
        if specs = [] then None
        else
          let ir =
            Obs.with_span "lmfao.compile.lower" (fun () ->
                Lower.rooted (Plan.build popts ~stats jt ~root specs))
          in
          Some
            (Obs.with_span "lmfao.compile.passes" (fun () ->
                 Passes.pipeline ~share:options.Lmfao.Engine.share ir)))
      groups
  in
  {
    signature = signature_of options db batch;
    options;
    groups = Array.of_list lowered;
  }

let run (c : compiled) (db : Database.t) : (string * Spec.result) list =
  Obs.with_span "lmfao.compile.exec" @@ fun () ->
  let groups = Array.to_list c.groups in
  if c.options.Lmfao.Engine.parallel && List.length groups > 1 then
    List.concat
      (Util.Pool.parallel_tasks
         (List.map
            (fun g () -> Exec.compute_rooted ~options:c.options db g)
            groups))
  else
    List.concat_map (fun g -> Exec.compute_rooted ~options:c.options db g) groups

(* ---------- the engine facade with its global plan cache ---------- *)

let cache_capacity = 64

type entry = { batch : Batch.t; plan : compiled; mutable last_use : int }

let cache : (int, entry) Hashtbl.t = Hashtbl.create cache_capacity
let clock = ref 0 (* use stamps for LRU eviction *)
let cache_lock = Mutex.create ()
let g_cache_size = Obs.gauge "lmfao.compile.cache_size"

let locked f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let touch e =
  incr clock;
  e.last_use <- !clock

let evict_lru () =
  let victim =
    Hashtbl.fold
      (fun fp e acc ->
        match acc with
        | Some (_, used) when used <= e.last_use -> acc
        | _ -> Some (fp, e.last_use))
      cache None
  in
  Option.iter (fun (fp, _) -> Hashtbl.remove cache fp) victim

(* The lock covers table access only: compilation runs outside it, so
   concurrent misses compile in parallel (a lost race compiles twice and
   keeps the later plan — both are equal). *)
let find_or_compile ?(options = default_options) db batch : compiled =
  let fp = Batch.fingerprint batch in
  let signature = signature_of options db batch in
  let hit =
    locked @@ fun () ->
    match Hashtbl.find_opt cache fp with
    | Some e
      when Batch.equal e.batch batch && e.plan.options = options
           && String.equal e.plan.signature signature ->
        touch e;
        Some e.plan
    | _ -> None
  in
  match hit with
  | Some c ->
      Obs.incr c_cache_hits;
      c
  | None ->
      let c = compile ~options db batch in
      locked (fun () ->
          if (not (Hashtbl.mem cache fp)) && Hashtbl.length cache >= cache_capacity
          then evict_lru ();
          let e = { batch; plan = c; last_use = 0 } in
          touch e;
          Hashtbl.replace cache fp e;
          Obs.set_gauge g_cache_size (float_of_int (Hashtbl.length cache)));
      c

let name = "lmfao-compiled"

let description =
  "staged compilation of the LMFAO plan: typed IR, fused+specialized scans, \
   cached per batch fingerprint (cyclic: interpreter fallback)"

let eval_batch ?(options = default_options) db batch :
    (string * Spec.result) list =
  match find_or_compile ~options db batch with
  | c -> run c db
  | exception Join_tree.Cyclic ->
      Obs.incr c_cyclic;
      Lmfao.Engine.eval_batch ~options db batch

let lookup ?options db (batch : Batch.t) : string -> Spec.result =
  let keyed = eval_batch ?options db batch in
  let table = Hashtbl.create (List.length keyed) in
  List.iter (fun (id, r) -> Hashtbl.replace table id r) keyed;
  fun id ->
    match Hashtbl.find_opt table id with
    | Some r -> r
    | None ->
        invalid_arg (Printf.sprintf "%s: missing aggregate %s" batch.Batch.name id)
