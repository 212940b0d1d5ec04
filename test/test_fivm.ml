(* Tests for incremental view maintenance: after any random sequence of
   inserts and deletes, every strategy's maintained covariance matrix equals
   the from-scratch recomputation, and all three strategies agree. *)

open Relational
module Cov = Rings.Covariance
module M = Fivm.Maintainer
module Delta = Fivm.Delta
module Star = Datagen.Star

let int n = Value.Int n
let flt x = Value.Float x

(* Star streams with integer-valued features in [0, 4]. *)
let stream = Star.stream ~value:(fun rng -> float_of_int (Util.Prng.int rng 5))

let covariance_from_flat db =
  (* reference: materialise the join of the storage contents *)
  let join = Database.materialise_join db in
  let schema = Relation.schema join in
  let positions = List.map (Schema.position schema) Star.features in
  let acc = Cov.Acc.create (List.length Star.features) in
  Relation.iter
    (fun t ->
      Cov.Acc.add_tuple acc
        (Array.of_list (List.map (fun p -> Value.to_float t.(p)) positions)))
    join;
  Cov.Acc.freeze acc

let run_updates strategy updates =
  let m = M.create strategy (Star.db ()) ~features:Star.features in
  List.iter (M.apply m) updates;
  m

let maintained_equals_recomputed strategy =
  QCheck2.Test.make ~count:30
    ~name:
      (Printf.sprintf "%s: maintained = recomputed" (M.strategy_name strategy))
    QCheck2.Gen.(pair (int_range 0 60) int)
    (fun (steps, seed) ->
      let updates = stream ~seed ~steps in
      let m = run_updates strategy updates in
      Cov.equal ~eps:1e-6 (M.covariance m) (M.recompute m))

let strategies_agree =
  QCheck2.Test.make ~count:20 ~name:"all three strategies agree"
    QCheck2.Gen.(pair (int_range 0 50) int)
    (fun (steps, seed) ->
      let updates = stream ~seed ~steps in
      let a = M.covariance (run_updates M.F_ivm updates) in
      let b = M.covariance (run_updates M.Higher_order updates) in
      let c = M.covariance (run_updates M.First_order updates) in
      Cov.equal ~eps:1e-6 a b && Cov.equal ~eps:1e-6 b c)

(* deterministic end-to-end check against a flat-join reference *)
let test_against_flat_join () =
  let updates = stream ~seed:2024 ~steps:120 in
  let m = run_updates M.F_ivm updates in
  (* replay the surviving multiset into a database *)
  let db = Star.db () in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (u : Delta.update) ->
      let k = (u.relation, u.tuple) in
      let c = Option.value ~default:0 (Hashtbl.find_opt counts k) in
      Hashtbl.replace counts k (c + u.multiplicity))
    updates;
  Hashtbl.iter
    (fun (rel, tuple) c ->
      for _ = 1 to c do
        Relation.append (Database.relation db rel) tuple
      done)
    counts;
  Alcotest.(check bool)
    "F-IVM matches flat-join covariance" true
    (Cov.equal ~eps:1e-6 (M.covariance m) (covariance_from_flat db))

let test_insert_then_delete_is_identity () =
  let m = M.create M.F_ivm (Star.db ()) ~features:Star.features in
  let us =
    [
      Delta.insert "F" [| int 1; int 2; flt 3.0 |];
      Delta.insert "D1" [| int 1; flt 4.0 |];
      Delta.insert "D2" [| int 2; flt 5.0 |];
    ]
  in
  List.iter (M.apply m) us;
  Alcotest.(check (float 1e-9)) "one join tuple" 1.0 (Cov.count (M.covariance m));
  (* delete everything in reverse *)
  List.iter
    (fun (u : Delta.update) -> M.apply m (Delta.delete u.relation u.tuple))
    (List.rev us);
  Alcotest.(check (float 1e-9)) "back to empty" 0.0 (Cov.count (M.covariance m))

let test_bulk_multiplicity () =
  let m = M.create M.F_ivm (Star.db ()) ~features:Star.features in
  M.apply m { Delta.relation = "F"; tuple = [| int 1; int 1; flt 2.0 |]; multiplicity = 3 };
  M.apply m (Delta.insert "D1" [| int 1; flt 1.0 |]);
  M.apply m (Delta.insert "D2" [| int 1; flt 1.0 |]);
  Alcotest.(check (float 1e-9)) "3 join tuples" 3.0 (Cov.count (M.covariance m));
  Alcotest.(check (float 1e-9)) "sum m = 6" 6.0
    (Util.Vec.get (Cov.sums (M.covariance m)) 0)

let test_throughput_sanity () =
  (* F-IVM should process a small stream strictly faster than first-order on
     a join with fan-out; this is the Figure 4 (right) shape at toy scale.
     Only a sanity check (no strict timing assertion, just completion). *)
  let updates = stream ~seed:7 ~steps:300 in
  let m = run_updates M.F_ivm updates in
  Alcotest.(check bool) "non-trivial state" true (Cov.count (M.covariance m) >= 0.0)

(* ---- stream generation ---- *)

let test_stream_dimensions_first () =
  let db = Datagen.Retailer.generate ~scale:0.01 ~seed:8 () in
  let stream = Datagen.Stream_gen.inserts_of_database db in
  let fact_card =
    List.fold_left
      (fun acc r -> Stdlib.max acc (Relation.cardinality r))
      0 (Database.relations db)
  in
  Alcotest.(check int) "stream covers the database"
    (Database.total_cardinality db) (List.length stream);
  (* the LAST fact_card updates are all fact inserts *)
  let tail =
    List.filteri
      (fun i _ -> i >= List.length stream - fact_card)
      stream
  in
  Alcotest.(check bool) "facts last" true
    (List.for_all (fun (u : Delta.update) -> u.relation = "Inventory") tail)

let test_churn_nets_to_database () =
  let db = Datagen.Retailer.generate ~scale:0.01 ~seed:9 () in
  let stream = Datagen.Stream_gen.with_churn ~churn:0.3 db in
  let net = Hashtbl.create 64 in
  List.iter
    (fun (u : Delta.update) ->
      let k = (u.relation, u.tuple) in
      Hashtbl.replace net k
        (u.multiplicity + Option.value ~default:0 (Hashtbl.find_opt net k)))
    stream;
  let total = Hashtbl.fold (fun _ m acc -> acc + m) net 0 in
  Alcotest.(check int) "net content = database" (Database.total_cardinality db) total

let test_view_sizes_reported () =
  let m = M.create M.F_ivm (Star.db ()) ~features:Star.features in
  M.apply m (Delta.insert "F" [| int 1; int 2; flt 3.0 |]);
  match m with
  | _ ->
      (* access through the storage: three relations tracked *)
      let s = M.storage m in
      Alcotest.(check int) "one stored tuple" 1 (Fivm.Storage.total_tuples s)

let test_obs_counters_track_batch () =
  let m = M.create M.F_ivm (Star.db ()) ~features:Star.features in
  let batch =
    [
      Delta.insert "F" [| int 1; int 2; flt 3.0 |];
      Delta.insert "D1" [| int 1; flt 1.0 |];
      Delta.insert "D2" [| int 2; flt 1.0 |];
      { Delta.relation = "F"; tuple = [| int 1; int 2; flt 5.0 |]; multiplicity = 2 };
    ]
  in
  Obs.reset ();
  Obs.with_enabled true (fun () -> M.apply_batch m batch);
  Alcotest.(check int) "fivm.updates = batch length" (List.length batch)
    (Obs.counter_value_by_name "fivm.updates");
  Alcotest.(check int) "fivm.delta_tuples sums multiplicities" 5
    (Obs.counter_value_by_name "fivm.delta_tuples");
  Alcotest.(check int) "fivm.batches" 1 (Obs.counter_value_by_name "fivm.batches");
  (* the end-of-batch gauges reflect the maintainer's own accessors *)
  Alcotest.(check (float 0.0)) "fivm.view_rows gauge"
    (float_of_int (M.view_rows m))
    (Obs.gauge_value (Obs.gauge "fivm.view_rows"));
  Alcotest.(check (float 0.0)) "fivm.storage_tuples gauge"
    (float_of_int (Fivm.Storage.total_tuples (M.storage m)))
    (Obs.gauge_value (Obs.gauge "fivm.storage_tuples"));
  Obs.reset ()

(* ---- triangle maintenance (cyclic IVM) ---- *)
module Tri = Fivm.Triangle

let triangle_maintained_equals_recomputed =
  QCheck2.Test.make ~count:40 ~name:"triangle count: maintained = recomputed"
    QCheck2.Gen.(pair (int_range 0 80) int)
    (fun (steps, seed) ->
      let rng = Util.Prng.create seed in
      let g = Tri.create () in
      let inserted = ref [] in
      for _ = 1 to steps do
        if !inserted <> [] && Util.Prng.int rng 4 = 0 then begin
          let arr = Array.of_list !inserted in
          let which, x, y = Util.Prng.choice rng arr in
          inserted := List.filter (fun e -> e <> (which, x, y)) !inserted;
          Tri.update g which ~x ~y (-1)
        end
        else begin
          let which = [| Tri.R; Tri.S; Tri.T |].(Util.Prng.int rng 3) in
          let x = int (Util.Prng.int rng 5) and y = int (Util.Prng.int rng 5) in
          inserted := (which, x, y) :: !inserted;
          Tri.update g which ~x ~y 1
        end
      done;
      Tri.count g = Tri.recompute g)

let test_triangle_basics () =
  let g = Tri.create () in
  Tri.update g Tri.R ~x:(int 1) ~y:(int 2) 1;
  Tri.update g Tri.S ~x:(int 2) ~y:(int 3) 1;
  Alcotest.(check int) "no triangle yet" 0 (Tri.count g);
  Tri.update g Tri.T ~x:(int 3) ~y:(int 1) 1;
  Alcotest.(check int) "one triangle" 1 (Tri.count g);
  Tri.update g Tri.R ~x:(int 1) ~y:(int 2) (-1);
  Alcotest.(check int) "deleted" 0 (Tri.count g)

(* ---- cyclic fallback in the LMFAO front end ---- ,*)
let test_eval_on_cyclic () =
  let mk name (a1, a2) rows =
    Relation.of_list name
      (Schema.make [ (a1, Value.TInt); (a2, Value.TInt) ])
      (List.map (fun (x, y) -> [| int x; int y |]) rows)
  in
  let db =
    Database.create "tri"
      [
        mk "R" ("a", "b") [ (0, 1); (1, 2) ];
        mk "S" ("b", "c") [ (1, 2); (2, 0) ];
        mk "T" ("c", "a") [ (2, 0); (0, 1) ];
      ]
  in
  let batch =
    {
      Aggregates.Batch.name = "tri";
      aggregates =
        [
          Aggregates.Spec.count ~id:"n";
          Aggregates.Spec.make ~id:"sa" ~terms:[ ("a", 1) ] ~group_by:[] ();
        ];
    }
  in
  (* triangles: (a=0,b=1,c=2) and (a=1,b=2,c=0) *)
  let results =
    (Lmfao.Engine.eval ~on_cyclic:`Materialize db batch).Lmfao.Engine.keyed
  in
  Alcotest.(check (float 1e-9)) "two triangles" 2.0
    (Aggregates.Spec.scalar_result (List.assoc "n" results));
  Alcotest.(check (float 1e-9)) "sum a over join" 1.0
    (Aggregates.Spec.scalar_result (List.assoc "sa" results))

(* ---- grouped (k-relation payload) maintenance ---- *)

let grouped_maintained_equals_recomputed =
  QCheck2.Test.make ~count:30 ~name:"grouped view: maintained = recomputed"
    QCheck2.Gen.(pair (int_range 0 60) int)
    (fun (steps, seed) ->
      let rng = Util.Prng.create seed in
      let spec =
        Fivm.Grouped_view.Spec.make ~id:"g" ~terms:[ ("m", 1) ]
          ~group_by:[ "u_cat" ] ()
      in
      (* D1 carries a categorical u_cat instead of the float u *)
      let db =
        Database.create "gstream"
          [
            Relation.create "F"
              (Schema.make [ ("a", Value.TInt); ("b", Value.TInt); ("m", Value.TFloat) ]);
            Relation.create "D1" (Schema.make [ ("a", Value.TInt); ("u_cat", Value.TInt) ]);
            Relation.create "D2" (Schema.make [ ("b", Value.TInt); ("v", Value.TFloat) ]);
          ]
      in
      let g = Fivm.Grouped_view.create db spec in
      let inserted = ref [] in
      for _ = 1 to steps do
        let u =
          if !inserted <> [] && Util.Prng.int rng 4 = 0 then begin
            let arr = Array.of_list !inserted in
            let u = Util.Prng.choice rng arr in
            inserted := List.filter (fun x -> x != u) !inserted;
            Delta.delete u.Delta.relation u.Delta.tuple
          end
          else begin
            let rel = [| "F"; "D1"; "D2" |].(Util.Prng.int rng 3) in
            let tuple =
              match rel with
              | "F" ->
                  [| int (Util.Prng.int rng 4); int (Util.Prng.int rng 4);
                     flt (float_of_int (Util.Prng.int rng 5)) |]
              | "D1" -> [| int (Util.Prng.int rng 4); int (Util.Prng.int rng 3) |]
              | _ -> [| int (Util.Prng.int rng 4); flt (float_of_int (Util.Prng.int rng 5)) |]
            in
            let u = Delta.insert rel tuple in
            inserted := u :: !inserted;
            u
          end
        in
        Fivm.Grouped_view.apply g u
      done;
      Fivm.Grouped_view.Spec.result_equal
        (List.sort compare (Fivm.Grouped_view.result g))
        (List.sort compare (Fivm.Grouped_view.recompute g)))

let test_grouped_simple () =
  let db =
    Database.create "g"
      [
        Relation.create "F" (Schema.make [ ("a", Value.TInt); ("m", Value.TFloat) ]);
        Relation.create "D" (Schema.make [ ("a", Value.TInt); ("k", Value.TInt) ]);
      ]
  in
  let spec =
    Fivm.Grouped_view.Spec.make ~id:"s" ~terms:[ ("m", 1) ] ~group_by:[ "k" ] ()
  in
  let g = Fivm.Grouped_view.create db spec in
  Fivm.Grouped_view.apply g (Delta.insert "F" [| int 1; flt 10.0 |]);
  Fivm.Grouped_view.apply g (Delta.insert "D" [| int 1; int 7 |]);
  Fivm.Grouped_view.apply g (Delta.insert "F" [| int 1; flt 5.0 |]);
  (match Fivm.Grouped_view.result g with
  | [ ([ ("k", Value.Int 7) ], v) ] -> Alcotest.(check (float 1e-9)) "15 in group 7" 15.0 v
  | r ->
      Alcotest.failf "unexpected result (%d groups)" (List.length r));
  Fivm.Grouped_view.apply g (Delta.delete "D" [| int 1; int 7 |]);
  Alcotest.(check int) "group vanished" 0 (List.length (Fivm.Grouped_view.result g))

(* ---- storage against a naive model of list buckets ---- *)
module Storage = Fivm.Storage

(* The reference semantics of the index buckets, as plain lists: a tuple
   goes to the head of each of its buckets when its multiplicity leaves 0,
   and is filtered out when the multiplicity returns to 0. *)
type model = {
  mults : (string * Tuple.t, int) Hashtbl.t;
  buckets : (string * string * Keypack.key, Tuple.t list) Hashtbl.t;
}

let model_apply s md (u : Delta.update) =
  let n = Storage.node s u.relation in
  let bucket nb = (u.relation, nb, Storage.key_for n ~neighbour:nb u.tuple) in
  let get k = Option.value ~default:[] (Hashtbl.find_opt md.buckets k) in
  let old_m = Option.value ~default:0 (Hashtbl.find_opt md.mults (u.relation, u.tuple)) in
  let new_m = old_m + u.multiplicity in
  if old_m = 0 && new_m <> 0 then begin
    Hashtbl.replace md.mults (u.relation, u.tuple) new_m;
    List.iter
      (fun nb -> Hashtbl.replace md.buckets (bucket nb) (u.tuple :: get (bucket nb)))
      (Storage.neighbours n)
  end
  else if new_m = 0 then begin
    Hashtbl.remove md.mults (u.relation, u.tuple);
    List.iter
      (fun nb ->
        Hashtbl.replace md.buckets (bucket nb)
          (List.filter (fun t -> not (Tuple.equal t u.tuple)) (get (bucket nb))))
      (Storage.neighbours n)
  end
  else Hashtbl.replace md.mults (u.relation, u.tuple) new_m

(* Every tuple the test may touch: a few join-key values per relation. *)
let storage_domain =
  List.concat
    [
      List.concat_map
        (fun a ->
          List.concat_map
            (fun b -> List.map (fun m -> ("F", [| int a; int b; flt m |])) [ 1.0; 2.0 ])
            [ 0; 1 ])
        [ 0; 1; 2 ];
      List.concat_map
        (fun a -> List.map (fun u -> ("D1", [| int a; flt u |])) [ 1.0; 2.0 ])
        [ 0; 1; 2 ];
      List.concat_map
        (fun b -> List.map (fun v -> ("D2", [| int b; flt v |])) [ 1.0; 2.0 ])
        [ 0; 1 ];
    ]

(* Every bucket of the storage, as (tuple, multiplicity) lists in iteration
   order, once through [iter_matching] and once through [fold_matching]. *)
let storage_buckets s =
  List.concat_map
    (fun (rel, tuple) ->
      let n = Storage.node s rel in
      List.map
        (fun nb ->
          let key = Storage.key_for n ~neighbour:nb tuple in
          let seen = ref [] in
          Storage.iter_matching n ~neighbour:nb key (fun t m -> seen := (t, m) :: !seen);
          let folded =
            Storage.fold_matching n ~neighbour:nb key (fun t m acc -> (t, m) :: acc) []
          in
          ((rel, nb, key), List.rev !seen, List.rev folded))
        (Storage.neighbours n))
    storage_domain

let storage_matches_model s md =
  List.for_all
    (fun ((rel, _, _) as k, iterated, folded) ->
      let expected =
        List.map
          (fun t -> (t, Hashtbl.find md.mults (rel, t)))
          (Option.value ~default:[] (Hashtbl.find_opt md.buckets k))
      in
      iterated = expected && folded = expected)
    (storage_buckets s)
  && List.for_all
       (fun (rel, t) ->
         Storage.multiplicity (Storage.node s rel) t
         = Option.value ~default:0 (Hashtbl.find_opt md.mults (rel, t)))
       storage_domain
  && Storage.total_tuples s = Hashtbl.fold (fun _ m acc -> acc + abs m) md.mults 0

let storage_agrees_with_model =
  QCheck2.Test.make ~count:60
    ~name:"storage = list model (order, multiplicities, dump replay)"
    QCheck2.Gen.(pair (int_range 0 150) int)
    (fun (steps, seed) ->
      let rng = Util.Prng.create seed in
      let domain = Array.of_list storage_domain in
      let s = Storage.create (Star.db ()) in
      let md = { mults = Hashtbl.create 16; buckets = Hashtbl.create 16 } in
      let ok = ref true in
      for _ = 1 to steps do
        (* multiplicities in [-2, 2]: counts dip below zero and come back,
           and a 0 update must be a no-op *)
        let rel, tuple = Util.Prng.choice rng domain in
        let u = { Delta.relation = rel; tuple; multiplicity = Util.Prng.int rng 5 - 2 } in
        model_apply s md u;
        Storage.apply s u;
        if not (storage_matches_model s md) then ok := false
      done;
      let replayed = Storage.create (Star.db ()) in
      List.iter (Storage.apply replayed) (Storage.dump s);
      !ok && storage_buckets replayed = storage_buckets s)

(* Regression (superlinear delete): removing a tuple from its join-key
   bucket used to rebuild the bucket, so a delete allocated in proportion to
   the bucket size. It must allocate the same at 16 and at 16,384. *)
let test_delete_cost_independent_of_bucket () =
  let delete_words size =
    let s = Storage.create (Star.db ()) in
    for b = 0 to size - 1 do
      Storage.apply s (Delta.insert "F" [| int 0; int b; flt 1.0 |])
    done;
    let u = Delta.delete "F" [| int 0; int (size / 2); flt 1.0 |] in
    let before = Gc.minor_words () in
    Storage.apply s u;
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "deleted" 0 (Storage.multiplicity (Storage.node s "F") u.tuple);
    words
  in
  Alcotest.(check (float 0.0)) "same minor words for a delete" (delete_words 16)
    (delete_words 16384)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fivm"
    [
      ( "maintained-vs-recomputed",
        [
          qcheck (maintained_equals_recomputed M.F_ivm);
          qcheck (maintained_equals_recomputed M.Higher_order);
          qcheck (maintained_equals_recomputed M.First_order);
        ] );
      ("agreement", [ qcheck strategies_agree ]);
      ( "grouped-views",
        [
          qcheck grouped_maintained_equals_recomputed;
          Alcotest.test_case "sum by group under updates" `Quick test_grouped_simple;
        ] );
      ( "triangles",
        [
          qcheck triangle_maintained_equals_recomputed;
          Alcotest.test_case "insert/delete basics" `Quick test_triangle_basics;
          Alcotest.test_case "cyclic fallback (eval)" `Quick test_eval_on_cyclic;
        ] );
      ( "streams",
        [
          Alcotest.test_case "dimensions before facts" `Quick test_stream_dimensions_first;
          Alcotest.test_case "churn nets to database" `Quick test_churn_nets_to_database;
          Alcotest.test_case "storage tracks tuples" `Quick test_view_sizes_reported;
          Alcotest.test_case "obs counters track batch" `Quick
            test_obs_counters_track_batch;
        ] );
      ( "storage",
        [
          qcheck storage_agrees_with_model;
          Alcotest.test_case "delete cost independent of bucket size" `Quick
            test_delete_cost_independent_of_bucket;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "matches flat-join covariance" `Quick
            test_against_flat_join;
          Alcotest.test_case "insert then delete = identity" `Quick
            test_insert_then_delete_is_identity;
          Alcotest.test_case "bulk multiplicities" `Quick test_bulk_multiplicity;
          Alcotest.test_case "stream completes" `Quick test_throughput_sanity;
        ] );
    ]
