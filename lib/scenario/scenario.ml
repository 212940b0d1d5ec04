(* Hostile-stream scenario cells: one (dataset x stream-shape) pair driven
   through every maintenance/serving layer of the stack, each layer checked
   by a DIFFERENTIAL against an independent oracle rather than a golden
   file.

   Streams come from [Datagen.Stream_gen.hostile], which snaps float
   features onto the dyadic lattice {1/16 .. 64/16}. Covariance-ring
   arithmetic over lattice values is exact in floats, so every differential
   below demands BIT-identity: maintained == recomputed, sharded ==
   unsharded, crash-recovered == never-crashed, served == engine-evaluated,
   streamed-from-pages == in-memory. A layer that reorders, drops, double-
   applies or rounds anything fails the bit comparison — there is no
   tolerance to hide behind.

   Counters ([scenario.*]): cells run, checks executed, failures, and the
   insert/delete volume pushed through, so CI can assert a smoke run really
   exercised the matrix. *)

open Relational
module M = Fivm.Maintainer
module Sg = Datagen.Stream_gen

let c_cells = Obs.counter "scenario.cells"
let c_checks = Obs.counter "scenario.checks"
let c_failures = Obs.counter "scenario.failures"
let c_updates = Obs.counter "scenario.updates"
let c_deletes = Obs.counter "scenario.deletes"

type check = { layer : string; ok : bool; detail : string }

type cell = {
  dataset : string;
  shape : string;
  updates : int;  (** total delta tuples in the stream *)
  deletes : int;  (** how many of them were deletions *)
  checks : check list;  (** in execution order *)
}

let layers = [ "maintain"; "shard"; "resilience"; "serve"; "model"; "streamed" ]
let cell_ok c = List.for_all (fun ch -> ch.ok) c.checks

(* A check from its differentials [(lhs, rhs, verdict)]: ok when every
   verdict holds and [ok] does; the detail reads "lhs == rhs" per pair, or
   "lhs <> rhs at <first differing coordinate>". *)
let differential ?(ok = true) ~layer context pairs =
  let pair (lhs, rhs, v) =
    match v with
    | Ok () -> Printf.sprintf "%s == %s" lhs rhs
    | Error diff -> Printf.sprintf "%s <> %s at %s" lhs rhs diff
  in
  {
    layer;
    ok = ok && List.for_all (fun (_, _, v) -> Result.is_ok v) pairs;
    detail = Printf.sprintf "%s: %s" context (String.concat ", " (List.map pair pairs));
  }

let with_temp_dir f =
  let dir = Filename.temp_dir "scenario" "" in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* ---- per-layer checks ---- *)

let maintained strategy db ~features batches =
  let m = M.create strategy db ~features in
  List.iter (M.apply_batch m) batches;
  m

(* Cancelled groups must VANISH from F-IVM views, not linger as zero
   payloads: net-zero churn would otherwise leave the view trees carrying
   one dead entry per deleted group forever. *)
let zero_residue_rows (m : M.t) =
  match M.dump_views m with
  | M.Cov_views views ->
      List.fold_left
        (fun acc (_, entries) ->
          acc
          + List.length (List.filter (fun (_, p) -> Fivm.Payload.Cov_dyn.is_zero p) entries))
        0 views
  | _ -> 0

(* Every strategy must match its own recompute AND land on the f-ivm
   [reference] triple. *)
let check_maintain strategy db ~features batches ~reference =
  let m = maintained strategy db ~features batches in
  let cov = M.covariance m in
  let residue = if strategy = M.F_ivm then zero_residue_rows m else 0 in
  differential ~ok:(residue = 0) ~layer:"maintain"
    (Printf.sprintf "%s (%d view rows, %d zero-residue)" (M.strategy_name strategy)
       (M.view_rows m) residue)
    [
      ("maintained", "recompute", Oracle.covariance cov (M.recompute m));
      ("maintained", "f-ivm", Oracle.covariance cov reference);
    ]

let check_shard ~shards db ~features batches ~reference =
  let sh = Fivm.Shard.create M.F_ivm db ~features ~shards in
  List.iter (fun b -> Fivm.Shard.apply_batch sh b) batches;
  differential ~layer:"shard"
    (Printf.sprintf "%d shards on %s" shards (Fivm.Shard.plan_attr (Fivm.Shard.plan_of sh)))
    [
      ("merged", "unsharded", Oracle.covariance (Fivm.Shard.covariance sh) reference);
      ("recompute", "unsharded", Oracle.covariance (Fivm.Shard.recompute sh) reference);
    ]

(* Crash mid-stream with the full damage grammar armed — the torn tail
   shears an acknowledged frame, the survivors are reordered and duplicated
   — then restart from the recovered sequence number and finish the stream.
   The final triple must be bit-identical to a driver that never crashed. *)
let check_resilience ~seed dir db ~features batches ~reference =
  let updates = Array.of_list (List.concat batches) in
  let n = Array.length updates in
  let spec =
    Printf.sprintf "crash-after:%d,torn-tail:3,reorder:4,dup:2" (max 1 (n / 2))
  in
  let faults = Resilience.Faults.parse ~seed spec in
  let cfg = Resilience.Driver.config ~checkpoint_every:64 ~faults dir in
  let make () = M.create M.F_ivm db ~features in
  let d, restarts =
    Resilience.Driver.submit_all ~max_restarts:8 ~on_crash:ignore
      (Resilience.Driver.create cfg make) updates
  in
  let recovered = Oracle.covariance (Resilience.Driver.covariance d) reference in
  let quarantined = List.length (Resilience.Driver.quarantined d) in
  Resilience.Driver.close d;
  differential ~ok:(restarts >= 1 && quarantined = 0) ~layer:"resilience"
    (Printf.sprintf "%s (%d restart(s), %d quarantined)" spec restarts quarantined)
    [ ("recovered", "clean", recovered) ]

(* Serve the covariance batch mid-stream and at the end, each time twice
   (cache miss then refreshed/cached hit), against a fresh engine evaluation
   over the server's own snapshot. *)
let check_serve db ~features batches =
  let srv = Serve.create M.F_ivm db ~features in
  let batch = Aggregates.Batch.covariance_numeric features in
  let probe stage =
    let miss = Oracle.canonical (Serve.serve srv batch) in
    let hit = Oracle.canonical (Serve.serve srv batch) in
    let fresh =
      Oracle.canonical
        (Lmfao.Engine.eval ~on_cyclic:`Materialize (Serve.snapshot srv) batch)
          .Lmfao.Engine.keyed
    in
    [
      (stage ^ " miss", "fresh", Oracle.keyed miss fresh);
      (stage ^ " hit", "fresh", Oracle.keyed hit fresh);
    ]
  in
  let n = List.length batches in
  let half = n / 2 in
  List.iteri (fun i b -> if i < half then Serve.apply_deltas srv b) batches;
  let mid = probe "mid-stream" in
  List.iteri (fun i b -> if i >= half then Serve.apply_deltas srv b) batches;
  differential ~layer:"serve" batch.Aggregates.Batch.name (mid @ probe "end-of-stream")

(* Register linreg-closed mid-stream, refresh it at the end, and compare the
   served parameters bit-for-bit against a cold retrain from a from-scratch
   recompute of the moments — the warm refresh path must not drift. *)
let check_model db ~features batches =
  let srv = Serve.create M.F_ivm db ~features in
  let response = List.hd features in
  let spec = Ml.Models.find_exn "linreg-closed" in
  let n = List.length batches in
  let half = max 1 (n / 2) in
  List.iteri (fun i b -> if i < half then Serve.apply_deltas srv b) batches;
  let name = Serve.Model.register srv spec ~response in
  List.iteri (fun i b -> if i >= half then Serve.apply_deltas srv b) batches;
  Serve.Model.refresh srv name;
  let served, epoch = Serve.Model.packed srv name in
  let cold =
    Ml.Model_intf.train_packed spec
      (Ml.Model_intf.moments_of_covariance
         ~snapshot:(fun () -> Serve.snapshot srv)
         (M.recompute (Serve.maintainer srv))
         ~features ~response)
  in
  differential ~layer:"model"
    (Printf.sprintf "%s@epoch %d" name epoch)
    [ ("warm-refreshed params", "cold retrain", Oracle.packed served cold) ]

(* Spill the post-stream live set to paged column files, reopen it with a
   2-page cache, and run both LMFAO engines over the streamed database: all
   four results (2 engines x {in-memory, paged}) must agree bitwise. *)
let check_streamed dir (m : M.t) ~features =
  let snap = M.snapshot m in
  let batch = Aggregates.Batch.covariance_numeric features in
  let lmfao db = Oracle.canonical (Lmfao.Engine.eval_batch db batch) in
  let compiled db =
    Oracle.canonical (Compile.Engine.run (Compile.Engine.compile db batch) db)
  in
  let r_mem = lmfao snap and r_mem_compiled = compiled snap in
  let paged =
    List.map
      (fun rel ->
        ignore (Store.Loader.import_relation ~dir ~page_rows:64 rel);
        Store.Paged.openr ~cache_pages:2 ~dir (Relation.name rel))
      (Database.relations snap)
  in
  let sdb =
    Database.create_streamed
      (Database.name snap ^ "_paged")
      (List.map (fun p -> (Store.Paged.stub p, Some (Store.Paged.stream p))) paged)
  in
  let r_paged = lmfao sdb and r_compiled = compiled sdb in
  List.iter Store.Paged.close paged;
  differential ~layer:"streamed" batch.Aggregates.Batch.name
    [
      ("lmfao paged", "mem", Oracle.keyed r_paged r_mem);
      ("compiled paged", "mem", Oracle.keyed r_compiled r_mem_compiled);
      ("compiled", "lmfao", Oracle.keyed r_mem_compiled r_mem);
    ]

(* ---- the cell driver ---- *)

let run_cell ?(seed = 42) ?(shards = [ 1; 4; 8 ]) ?(layers = layers) ~dataset ~shape
    ~features db =
  Obs.with_span "scenario.cell" @@ fun () ->
  Obs.incr c_cells;
  let db, batches = Sg.hostile ~seed shape db in
  let updates = List.fold_left (fun n b -> n + List.length b) 0 batches in
  let deletes =
    List.fold_left
      (fun n b ->
        n + List.length (List.filter (fun (u : Fivm.Delta.update) -> u.multiplicity < 0) b))
      0 batches
  in
  Obs.add c_updates updates;
  Obs.add c_deletes deletes;
  let checks = ref [] in
  let record (c : check) =
    Obs.incr c_checks;
    if not c.ok then Obs.incr c_failures;
    checks := c :: !checks
  in
  let want layer = List.mem layer layers in
  (* the unsharded F-IVM maintained triple anchors the cross-layer
     differentials; built once, on demand *)
  let ref_m = lazy (maintained M.F_ivm db ~features batches) in
  let reference = lazy (M.covariance (Lazy.force ref_m)) in
  if want "maintain" then
    List.iter
      (fun strategy ->
        record
          (check_maintain strategy db ~features batches ~reference:(Lazy.force reference)))
      [ M.F_ivm; M.Higher_order; M.First_order ];
  if want "shard" then
    List.iter
      (fun n ->
        record (check_shard ~shards:n db ~features batches ~reference:(Lazy.force reference)))
      shards;
  if want "resilience" then
    with_temp_dir (fun dir ->
        record
          (check_resilience ~seed dir db ~features batches
             ~reference:(Lazy.force reference)));
  if want "serve" then record (check_serve db ~features batches);
  if want "model" then record (check_model db ~features batches);
  if want "streamed" then
    with_temp_dir (fun dir -> record (check_streamed dir (Lazy.force ref_m) ~features));
  { dataset; shape = Sg.shape_name shape; updates; deletes; checks = List.rev !checks }

let pp_cell ppf (c : cell) =
  Format.fprintf ppf "@[<v>%s x %s: %d updates (%d deletes) — %s@," c.dataset c.shape
    c.updates c.deletes
    (if cell_ok c then "OK" else "FAILED");
  List.iter
    (fun ch ->
      Format.fprintf ppf "  [%s] %-10s %s@," (if ch.ok then "ok" else "FAIL") ch.layer
        ch.detail)
    c.checks;
  Format.fprintf ppf "@]"
