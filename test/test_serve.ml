(* Differential tests for the epoch-invalidated serving cache (lib/serve).

   The headline property: a served result — whether it came from the cache,
   from an in-place covariance refresh after a delta batch, or from a
   recompute after invalidation — is BIT-identical to a fresh
   [Lmfao.Engine.eval] (the interpreter, the oracle) over the server's
   current snapshot, at every point
   of a random insert/delete stream, for all three maintenance strategies.
   Bitwise equality across the maintained and recomputed pipelines only
   holds under exact float arithmetic, so the streams draw feature values
   from the dyadic lattice of [Datagen.Star] (strictly positive multiples
   of 1/16, at most 4): every covariance accumulation is then exactly
   representable and no summation order can change a bit. *)

open Relational
module M = Fivm.Maintainer
module Delta = Fivm.Delta
module Batch = Aggregates.Batch
module Spec = Aggregates.Spec
module Star = Datagen.Star

let int n = Value.Int n
let flt x = Value.Float x

let strategies = [ (M.F_ivm, "fivm"); (M.Higher_order, "higher"); (M.First_order, "first") ]
let lattice_stream = Star.stream ~value:Star.lattice
let segment stream lo len = List.filteri (fun i _ -> i >= lo && i < lo + len) stream

(* Bit-level equality of keyed results, insensitive to aggregate and row
   order (the engine groups by decomposition root; serve returns batch
   order). *)
let same a b = Oracle.(keyed (canonical a) (canonical b))
let bit_exact = Alcotest.(result unit string)

let fresh_eval srv batch =
  (Lmfao.Engine.eval ~on_cyclic:`Materialize (Serve.snapshot srv) batch)
    .Lmfao.Engine.keyed

let check_batch srv what batch =
  let served = Serve.serve srv batch in
  Result.iter_error
    (QCheck2.Test.fail_reportf "%s: served %s diverges from fresh recompute at %s"
       what batch.Batch.name)
    (same served (fresh_eval srv batch))

(* The differential: random lattice stream applied in rounds; after every
   round every batch must serve bit-identically to recompute, twice (the
   second being a guaranteed cache hit), for each strategy. *)
let serving_differential =
  QCheck2.Test.make ~count:6 ~name:"served = recompute bitwise (all strategies)"
    QCheck2.Gen.(triple int (int_range 20 60) (int_range 1 3))
    (fun (seed, steps, rounds) ->
      List.for_all
        (fun (strategy, sname) ->
          let srv = Serve.create strategy (Star.db ()) ~features:Star.features in
          let per = steps / (rounds + 1) in
          let stream = lattice_stream ~seed ~steps in
          Serve.apply_deltas srv (segment stream 0 per);
          for round = 1 to rounds do
            List.iter
              (fun b ->
                check_batch srv (Printf.sprintf "%s round %d miss" sname round) b;
                check_batch srv (Printf.sprintf "%s round %d hit" sname round) b)
              Star.batches;
            Serve.apply_deltas srv (segment stream (round * per) per);
            (* immediately after the delta batch: the covariance batch was
               refreshed in place (no recompute), the others invalidated —
               all must still equal recompute *)
            List.iter
              (fun b ->
                check_batch srv
                  (Printf.sprintf "%s round %d post-delta" sname round)
                  b)
              Star.batches
          done;
          true)
        strategies)

(* Cache-state bookkeeping on one deterministic run: misses on first touch,
   hits on repeats, refresh (not invalidation) for the covariance-backed
   batch, invalidation for the rest; epoch advances once per delta batch. *)
let test_stats_and_epoch () =
  let srv = Serve.create M.F_ivm (Star.db ()) ~features:Star.features in
  let stream = lattice_stream ~seed:11 ~steps:60 in
  Serve.apply_deltas srv (segment stream 0 40);
  Alcotest.(check int) "epoch after first delta batch" 1 (Serve.epoch srv);
  List.iter (fun b -> ignore (Serve.serve srv b)) Star.batches;
  List.iter (fun b -> ignore (Serve.serve srv b)) Star.batches;
  let s = Serve.stats srv in
  Alcotest.(check int) "one miss per distinct batch" 3 s.Serve.misses;
  Alcotest.(check int) "repeats all hit" 3 s.Serve.hits;
  Alcotest.(check int) "three entries cached" 3 (Serve.cache_size srv);
  Serve.apply_deltas srv (segment stream 40 20);
  Alcotest.(check int) "epoch advanced" 2 (Serve.epoch srv);
  let s = Serve.stats srv in
  Alcotest.(check int) "covariance batch refreshed in place" 1 s.Serve.refreshes;
  Alcotest.(check int) "other batches invalidated" 2 s.Serve.invalidations;
  Alcotest.(check int) "invalidated entries dropped" 1 (Serve.cache_size srv);
  (* the refreshed entry serves as a HIT and still equals recompute *)
  let before = (Serve.stats srv).Serve.hits in
  check_batch srv "refreshed hit" Star.cov_batch;
  Alcotest.(check int) "refresh served without recompute" (before + 1)
    (Serve.stats srv).Serve.hits

(* The result cache is keyed by [Batch.fingerprint], which once left the
   aggregate ids out: [a=SUM(m); b=SUM(u)] then [b=SUM(m); a=SUM(u)] hit
   the first entry and came back with [a] and [b] swapped. *)
let test_permuted_ids () =
  let srv = Serve.create M.F_ivm (Star.db ()) ~features:Star.features in
  Serve.apply_deltas srv (lattice_stream ~seed:5 ~steps:40);
  let batch a b =
    {
      Batch.name = "perm";
      aggregates =
        [
          Spec.make ~id:a ~terms:[ ("m", 1) ] ~group_by:[] ();
          Spec.make ~id:b ~terms:[ ("u", 1) ] ~group_by:[] ();
        ];
    }
  in
  let sum id = Spec.scalar_result (List.assoc id (fresh_eval srv (batch "a" "b"))) in
  Alcotest.(check bool) "SUM(m) <> SUM(u) on this data" true (sum "a" <> sum "b");
  List.iter
    (fun (a, b) ->
      Alcotest.check bit_exact (Printf.sprintf "served [%s; %s] bitwise" a b) (Ok ())
        (same (Serve.serve srv (batch a b)) (fresh_eval srv (batch a b))))
    [ ("a", "b"); ("b", "a"); ("a", "b") ]

(* Two batches with different aggregates but the same CRC-32 fingerprint,
   found by a birthday search over random 8-byte batch names (about 2^16
   tries): a hit must compare the cached batch, not just the key. *)
let test_fingerprint_collision () =
  let rng = Util.Prng.create 1 in
  let batch i =
    {
      Batch.name = String.init 8 (fun _ -> Char.chr (Util.Prng.int rng 256));
      aggregates =
        [ Spec.make ~id:"s" ~terms:[ ((if i land 1 = 0 then "m" else "u"), 1) ] ~group_by:[] () ];
    }
  in
  let seen = Hashtbl.create 200_000 in
  let rec search i =
    if i > 2_000_000 then Alcotest.fail "no fingerprint collision found";
    let b = batch i in
    let fp = Batch.fingerprint b in
    match Hashtbl.find_opt seen fp with
    | Some (j, b') when (i - j) land 1 = 1 -> (b', b)
    | _ ->
        Hashtbl.replace seen fp (i, b);
        search (i + 1)
  in
  let first, second = search 0 in
  let srv = Serve.create M.F_ivm (Star.db ()) ~features:Star.features in
  Serve.apply_deltas srv (lattice_stream ~seed:5 ~steps:40);
  List.iter
    (fun b ->
      Alcotest.check bit_exact ("served " ^ b.Batch.name ^ " bitwise") (Ok ())
        (same (Serve.serve srv b) (fresh_eval srv b)))
    [ first; second; first; second ]

(* Concurrent clients: K pool tasks serving the same mix must each get the
   bit-identical answer. A worker budget is forced (this machine may
   default to zero tokens) so real domains are exercised. *)
let test_concurrent_clients () =
  let saved = Util.Pool.worker_budget () in
  Util.Pool.set_worker_budget 3;
  Fun.protect ~finally:(fun () -> Util.Pool.set_worker_budget saved)
  @@ fun () ->
  let srv = Serve.create M.Higher_order (Star.db ()) ~features:Star.features in
  Serve.apply_deltas srv (lattice_stream ~seed:7 ~steps:80);
  (* warm the cache sequentially so the concurrent burst only reads *)
  List.iter (fun b -> ignore (Serve.serve srv b)) Star.batches;
  let expected = List.map (fun b -> fresh_eval srv b) Star.batches in
  let burst = List.concat (List.init 4 (fun _ -> Star.batches)) in
  let got = Serve.serve_many ~clients:4 srv burst in
  List.iteri
    (fun i r ->
      Alcotest.check bit_exact
        (Printf.sprintf "client result %d bit-identical" i)
        (Ok ())
        (same r (List.nth expected (i mod 3))))
    got

(* The single-writer contract must be ENFORCED, not just documented. A model
   whose refresh parks on an atomic gate holds one [apply_deltas] open
   mid-flight on a spawned domain; any second writer entering during that
   window must raise [Serve.Concurrent_writer] instead of interleaving with
   the maintainer pass. Deterministic: the main domain only proceeds once
   the gate confirms the writer is inside. *)
let test_single_writer_enforced () =
  let entered = Atomic.make false and release = Atomic.make false in
  let blocking_model : Ml.Model_intf.t =
    (module struct
      let name = "blocker"
      let description = "test model that parks its refresh on a gate"

      type options = unit

      let default_options = ()

      type model = unit

      let needs = `Covariance
      let train_from_moments ?options:_ ?warm_start:_ _ = ()

      let refresh ?options:_ ~previous:_ _ =
        Atomic.set entered true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done

      let predict () _ = 0.0
      let encode _ () = ()
      let decode _ = ()
    end)
  in
  let srv = Serve.create M.F_ivm (Star.db ()) ~features:Star.features in
  Serve.apply_deltas srv (lattice_stream ~seed:3 ~steps:30);
  ignore (Serve.Model.register srv blocking_model ~response:"m");
  let update = [ Delta.insert "D1" [| int 0; flt 1.0 |] ] in
  let writer = Domain.spawn (fun () -> Serve.apply_deltas srv update) in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  (* the first writer is parked inside apply_deltas: every overlapping
     writer entry point must refuse *)
  let raises f =
    match f () with
    | _ -> false
    | exception Serve.Concurrent_writer _ -> true
  in
  Alcotest.(check bool) "overlapping apply_deltas raises" true
    (raises (fun () -> Serve.apply_deltas srv update));
  Alcotest.(check bool) "overlapping Model.refresh raises" true
    (raises (fun () -> Serve.Model.refresh srv "blocker"));
  Alcotest.(check bool) "overlapping Model.register raises" true
    (raises (fun () ->
         Serve.Model.register srv ~name:"second" blocking_model ~response:"m"));
  Atomic.set release true;
  Domain.join writer;
  (* the flag is released: writing works again, and the refused writers
     left no partial state behind (epoch advanced exactly once) *)
  let e = Serve.epoch srv in
  Serve.apply_deltas srv update;
  Alcotest.(check int) "writer flag released after the race" (e + 1)
    (Serve.epoch srv)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "serve"
    [
      ("differential", [ qcheck serving_differential ]);
      ( "cache",
        [
          Alcotest.test_case "stats and epoch bookkeeping" `Quick
            test_stats_and_epoch;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
          Alcotest.test_case "permuted ids do not share an entry" `Quick
            test_permuted_ids;
          Alcotest.test_case "fingerprint collision does not share an entry"
            `Quick test_fingerprint_collision;
        ] );
      ( "writer",
        [
          Alcotest.test_case "single-writer contract enforced" `Quick
            test_single_writer_enforced;
        ] );
    ]
