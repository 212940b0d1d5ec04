(* Differential/determinism harness for sharded maintenance (Fivm.Shard +
   Resilience.Sharded).

   The headline property is SHARD-COUNT INVARIANCE: the merged covariance of
   an N-shard pipeline equals the unsharded maintainer's, bit for bit, for
   every N. Bitwise equality across different SUMMATION ORDERS only holds
   when the float arithmetic is exact, so the differential streams draw
   feature values from a dyadic lattice (strictly positive multiples of
   1/16, at most 4): every product and sum in the covariance pipeline is
   then exactly representable (numerators stay far below 2^53), and any
   association of the additions yields identical bits. For arbitrary floats
   the guarantee is weaker — deterministic for a fixed shard count, equal
   to the unsharded run up to summation order — and is tested as such. *)

open Relational
module Cov = Rings.Covariance
module M = Fivm.Maintainer
module Delta = Fivm.Delta
module Shard = Fivm.Shard
module Faults = Resilience.Faults
module Sharded = Resilience.Sharded
module Star = Datagen.Star

(* The star's partition attribute resolves to "a" (in F and D1); D2 is
   broadcast. *)
let strategies = [ M.F_ivm; M.Higher_order; M.First_order ]
let make strategy () = M.create strategy (Star.db ()) ~features:Star.features

(* Exact-arithmetic stream: features are strictly positive multiples of
   1/16 (never -0.0, never rounding), so every covariance accumulation is
   exact and summation order cannot change a single bit. *)
let lattice_stream = Star.stream ~value:Star.lattice

(* Arbitrary-float stream: order-sensitive accumulations. *)
let float_stream = Star.stream ~value:(fun rng -> Util.Prng.float rng 5.0)

let bit_exact = Alcotest.(result unit string)

(* Shard directories nest (dir/shard-k/...): recursive removal. *)
let with_temp_dir f =
  let dir = Filename.temp_dir "shard" "" in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let clean_covariance strategy updates =
  let m = make strategy () in
  List.iter (M.apply m) updates;
  M.covariance m

let shard_counts = [ 1; 2; 3; 8 ]
let qcheck = QCheck_alcotest.to_alcotest

(* ---- the headline differential: shard-count invariance, bit for bit ---- *)

let sharded_bit_identical strategy =
  QCheck2.Test.make ~count:8
    ~name:
      (Printf.sprintf "%s: N-shard run is bit-identical to unsharded and recompute"
         (M.strategy_name strategy))
    QCheck2.Gen.int
    (fun seed ->
      let updates = lattice_stream ~seed ~steps:500 in
      let reference = clean_covariance strategy updates in
      List.for_all
        (fun shards ->
          let sh = Shard.create strategy (Star.db ()) ~features:Star.features ~shards in
          Shard.apply_batch sh updates;
          Oracle.covariance (Shard.covariance sh) reference = Ok ()
          && Oracle.covariance (Shard.recompute sh) reference = Ok ())
        shard_counts)

(* Single-update routing path (Shard.apply) agrees with the batch path. *)
let test_apply_matches_apply_batch () =
  let updates = lattice_stream ~seed:97 ~steps:300 in
  List.iter
    (fun strategy ->
      let one = Shard.create strategy (Star.db ()) ~features:Star.features ~shards:3 in
      List.iter (Shard.apply one) updates;
      let batch = Shard.create strategy (Star.db ()) ~features:Star.features ~shards:3 in
      Shard.apply_batch batch updates;
      Alcotest.check bit_exact
        (M.strategy_name strategy ^ ": apply = apply_batch")
        (Ok ())
        (Oracle.covariance (Shard.covariance one) (Shard.covariance batch)))
    strategies

(* The result may not depend on how many domains applied the shards. *)
let test_domain_count_invariance () =
  let updates = lattice_stream ~seed:3 ~steps:400 in
  let reference =
    let sh = Shard.create M.F_ivm (Star.db ()) ~features:Star.features ~shards:4 in
    Shard.apply_batch ~domains:1 sh updates;
    Shard.covariance sh
  in
  List.iter
    (fun domains ->
      let sh = Shard.create M.F_ivm (Star.db ()) ~features:Star.features ~shards:4 in
      Shard.apply_batch ~domains sh updates;
      Alcotest.check bit_exact
        (Printf.sprintf "domains=%d bit-identical to domains=1" domains)
        (Ok ())
        (Oracle.covariance (Shard.covariance sh) reference))
    [ 2; 4; 8 ]

(* ---- fault injection: per-shard crash recovery stays invariant ---- *)

let sharded_crash_recovery strategy =
  QCheck2.Test.make ~count:6
    ~name:
      (Printf.sprintf "%s: sharded crash-after:K recovery is bit-identical"
         (M.strategy_name strategy))
    QCheck2.Gen.(pair int (int_range 1 120))
    (fun (seed, crash_at) ->
      let updates = lattice_stream ~seed ~steps:500 in
      let reference = clean_covariance strategy updates in
      List.for_all
        (fun shards ->
          with_temp_dir @@ fun dir ->
          let plan = Shard.plan ~shards (Star.db ()) in
          let spec = Printf.sprintf "crash-after:%d,torn-tail:4" crash_at in
          let sh =
            Sharded.create ~checkpoint_every:16
              ~faults:(fun k -> Faults.parse ~seed:(seed + k) spec)
              ~dir ~plan (make strategy)
          in
          Sharded.submit_batch sh updates;
          let queues = Shard.partition plan updates in
          let expected = Array.map List.length queues in
          (* a crash fires in every shard whose queue reaches crash_at *)
          let expected_crashes =
            Array.fold_left
              (fun acc len -> if len >= crash_at then acc + 1 else acc)
              0 expected
          in
          Sharded.crashes sh = expected_crashes
          && Sharded.seqs sh = expected
          && Oracle.covariance (Sharded.covariance sh) reference = Ok ())
        shard_counts)

(* Clean stop/restart: per-shard recovery reads only that shard's state. *)
let test_sharded_restart () =
  with_temp_dir @@ fun dir ->
  let updates = lattice_stream ~seed:8 ~steps:400 in
  let reference = clean_covariance M.F_ivm updates in
  let plan = Shard.plan ~shards:4 (Star.db ()) in
  let half = List.filteri (fun i _ -> i < 200) updates in
  let rest = List.filteri (fun i _ -> i >= 200) updates in
  let sh = Sharded.create ~checkpoint_every:32 ~dir ~plan (make M.F_ivm) in
  Sharded.submit_batch sh half;
  let seqs_before = Sharded.seqs sh in
  Sharded.close sh;
  let sh = Sharded.create ~checkpoint_every:32 ~dir ~plan (make M.F_ivm) in
  Alcotest.(check bool) "each shard resumed at its own seq" true
    (Sharded.seqs sh = seqs_before);
  Sharded.submit_batch sh rest;
  let expected =
    Array.fold_left
      (fun acc q -> acc + List.length q)
      0
      (Shard.partition plan updates)
  in
  Alcotest.(check int) "all committed (with broadcast replication)" expected
    (Array.fold_left ( + ) 0 (Sharded.seqs sh));
  Alcotest.check bit_exact "restarted sharded run is bit-identical" (Ok ())
    (Oracle.covariance (Sharded.covariance sh) reference)

(* ---- routing ---- *)

let test_plan_and_partition () =
  let db = Star.db () in
  let plan = Shard.plan ~shards:4 db in
  Alcotest.(check string) "partition attribute" "a" (Shard.plan_attr plan);
  Alcotest.(check int) "shards" 4 (Shard.plan_shards plan);
  let updates = lattice_stream ~seed:5 ~steps:200 in
  let queues = Shard.partition plan updates in
  (* keyed updates land in exactly one queue; broadcasts in all *)
  let keyed, broadcast =
    List.fold_left
      (fun (k, b) (u : Delta.update) ->
        if u.relation = "D2" then (k, b + 1) else (k + 1, b))
      (0, 0) updates
  in
  let total = Array.fold_left (fun acc q -> acc + List.length q) 0 queues in
  Alcotest.(check int) "replication factor" (keyed + (4 * broadcast)) total;
  (* same-key F/D1 updates route to the same shard *)
  List.iter
    (fun (u : Delta.update) ->
      match Shard.route_update plan u with
      | Some k ->
          let k' =
            Keypack.shard_of_key ~shards:4
              (Keypack.key_of_tuple [| 0 |] u.tuple)
          in
          Alcotest.(check int) "route = hash of key field" k' k
      | None -> Alcotest.(check string) "only D2 broadcasts" "D2" u.relation)
    updates;
  (* per-shard queues preserve stream order *)
  Array.iter
    (fun q ->
      let positions =
        List.map
          (fun (u : Delta.update) ->
            let rec index i = function
              | [] -> -1
              | x :: rest -> if x == u then i else index (i + 1) rest
            in
            index 0 updates)
          q
      in
      Alcotest.(check bool) "queue preserves stream order" true
        (List.sort compare positions = positions))
    queues

(* ---- arbitrary floats: determinism for a fixed N, accuracy vs unsharded ---- *)

let test_arbitrary_floats_deterministic () =
  let updates = float_stream ~seed:1234 ~steps:500 in
  let run () =
    let sh = Shard.create M.F_ivm (Star.db ()) ~features:Star.features ~shards:3 in
    Shard.apply_batch sh updates;
    Shard.covariance sh
  in
  let a = run () and b = run () in
  Alcotest.check bit_exact "two identical runs agree bit-for-bit" (Ok ())
    (Oracle.covariance a b);
  let reference = clean_covariance M.F_ivm updates in
  Alcotest.(check bool) "agrees with unsharded up to summation order" true
    (Cov.equal_rel ~eps:1e-9 reference a)

(* One shard is the unsharded pipeline, bit for bit, even where summation
   order matters: shard 0 sees the whole stream in order and the merge
   returns its triple verbatim. *)
let test_one_shard_is_bare_maintainer () =
  let updates = float_stream ~seed:4321 ~steps:500 in
  List.iter
    (fun strategy ->
      let sh = Shard.create strategy (Star.db ()) ~features:Star.features ~shards:1 in
      Shard.apply_batch sh updates;
      Alcotest.check bit_exact
        (M.strategy_name strategy ^ ": 1 shard = bare maintainer")
        (Ok ())
        (Oracle.covariance (Shard.covariance sh) (clean_covariance strategy updates)))
    strategies

(* The same for recovery: a crashing 1-shard Sharded run equals a bare
   Driver run under the same fault plan, and both equal the clean run. *)
let test_one_shard_is_bare_driver () =
  let updates = float_stream ~seed:8765 ~steps:400 in
  let spec = "crash-after:150,torn-tail:4" in
  List.iter
    (fun strategy ->
      let name = M.strategy_name strategy in
      let bare =
        with_temp_dir @@ fun dir ->
        let cfg =
          Resilience.Driver.config ~checkpoint_every:16 ~faults:(Faults.parse ~seed:5 spec) dir
        in
        let d, restarts =
          Resilience.Driver.submit_all ~max_restarts:8 ~on_crash:ignore
            (Resilience.Driver.create cfg (make strategy))
            (Array.of_list updates)
        in
        Alcotest.(check int) (name ^ ": bare driver crashed once") 1 restarts;
        Resilience.Driver.covariance d
      in
      let sharded =
        with_temp_dir @@ fun dir ->
        (* like the bare driver's, the checkpoint directory need not exist *)
        let dir = Filename.concat dir "maintain" in
        let sh =
          Sharded.create ~checkpoint_every:16
            ~faults:(fun k -> Faults.parse ~seed:(5 + k) spec)
            ~dir ~plan:(Shard.plan ~shards:1 (Star.db ())) (make strategy)
        in
        Sharded.submit_batch sh updates;
        Alcotest.(check int) (name ^ ": 1-shard run crashed once") 1 (Sharded.crashes sh);
        Sharded.covariance sh
      in
      Alcotest.check bit_exact (name ^ ": 1-shard Sharded = bare Driver") (Ok ())
        (Oracle.covariance sharded bare);
      Alcotest.check bit_exact (name ^ ": bare Driver = clean run") (Ok ())
        (Oracle.covariance bare (clean_covariance strategy updates)))
    strategies

(* A run stopped past its restart budget, then finished over the same
   directory: the fatal crash is counted and its recovered driver replaces
   the crashed one, the stopped pipeline closes cleanly, and resuming the
   whole stream — once, then again as a rerun — equals a clean replay. *)
let test_resume_after_stop () =
  let updates = float_stream ~seed:4242 ~steps:400 in
  List.iter
    (fun shards ->
      let name = Printf.sprintf "%d shard(s)" shards in
      with_temp_dir @@ fun dir ->
      let plan = Shard.plan ~shards (Star.db ()) in
      let clean = Shard.create M.F_ivm (Star.db ()) ~features:Star.features ~shards in
      Shard.apply_batch clean updates;
      let open_sharded ?faults () =
        Sharded.create ~checkpoint_every:16 ~max_restarts:0 ?faults ~dir ~plan
          (make M.F_ivm)
      in
      let sh =
        open_sharded ~faults:(fun k -> Faults.parse ~seed:k "crash-after:40,torn-tail:4") ()
      in
      let first = Sharded.driver sh 0 in
      (match Sharded.submit_batch sh updates with
      | () -> Alcotest.fail (name ^ ": a crash survived a restart budget of 0")
      | exception Failure _ -> ());
      Alcotest.(check bool) (name ^ ": the crash past the budget is counted") true
        (Sharded.crashes sh >= 1);
      if shards = 1 then
        Alcotest.(check bool) (name ^ ": the crashed driver is replaced") true
          (Sharded.driver sh 0 != first);
      Sharded.close sh;
      let expected = Array.map List.length (Shard.partition plan updates) in
      for run = 1 to 2 do
        let sh = open_sharded () in
        Sharded.resume sh updates;
        Alcotest.(check (array int))
          (Printf.sprintf "%s, run %d: every queue committed once" name run)
          expected (Sharded.seqs sh);
        Alcotest.check bit_exact
          (Printf.sprintf "%s, run %d: resumed = clean replay" name run)
          (Ok ())
          (Oracle.covariance (Sharded.covariance sh) (Shard.covariance clean));
        Sharded.close sh
      done)
    [ 1; 4 ]

(* ---- observability ---- *)

let test_shard_counters () =
  Obs.reset ();
  Obs.with_enabled true @@ fun () ->
  let updates = lattice_stream ~seed:77 ~steps:200 in
  let sh = Shard.create M.F_ivm (Star.db ()) ~features:Star.features ~shards:2 in
  Shard.apply_batch sh updates;
  ignore (Shard.covariance sh);
  Alcotest.(check bool) "fivm.shard.routed > 0" true
    (Obs.counter_value_by_name "fivm.shard.routed" > 0);
  Alcotest.(check bool) "fivm.shard.broadcast > 0" true
    (Obs.counter_value_by_name "fivm.shard.broadcast" > 0);
  Alcotest.(check int) "fivm.shard.batches" 1
    (Obs.counter_value_by_name "fivm.shard.batches");
  Alcotest.(check bool) "per-shard delta counters cover the batch" true
    (Obs.counter_value_by_name "fivm.shard.0.deltas"
     + Obs.counter_value_by_name "fivm.shard.1.deltas"
    > 0);
  Alcotest.(check bool) "skew gauge set" true
    (Obs.gauge_value (Obs.gauge "fivm.shard.skew") > 0.0);
  Obs.reset ()

let () =
  Alcotest.run "shard"
    [
      ( "differential",
        List.map (fun s -> qcheck (sharded_bit_identical s)) strategies
        @ [
            Alcotest.test_case "apply matches apply_batch" `Quick
              test_apply_matches_apply_batch;
            Alcotest.test_case "domain-count invariance" `Quick
              test_domain_count_invariance;
            Alcotest.test_case "arbitrary floats: deterministic for fixed N" `Quick
              test_arbitrary_floats_deterministic;
            Alcotest.test_case "arbitrary floats: 1 shard = bare maintainer" `Quick
              test_one_shard_is_bare_maintainer;
          ] );
      ( "crash-recovery",
        List.map (fun s -> qcheck (sharded_crash_recovery s)) strategies
        @ [
            Alcotest.test_case "clean restart per shard" `Quick test_sharded_restart;
            Alcotest.test_case "arbitrary floats: 1-shard Sharded = bare Driver" `Quick
              test_one_shard_is_bare_driver;
            Alcotest.test_case "resume after a stop, then rerun" `Quick
              test_resume_after_stop;
          ] );
      ( "routing",
        [ Alcotest.test_case "plan and partition" `Quick test_plan_and_partition ] );
      ( "observability",
        [ Alcotest.test_case "shard counters and gauges" `Quick test_shard_counters ] );
    ]
