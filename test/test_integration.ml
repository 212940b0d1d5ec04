(* End-to-end integration tests across subsystems, at tiny scales:
   the two Figure-2 flows agree; the three IVM strategies converge to the
   same state on a real dataset stream; every model trains on every
   dataset. *)

open Relational

let test_two_flows_agree () =
  (* the structure-aware model must be at least as accurate as the one-epoch
     SGD baseline, and the pipelines must see the same data *)
  let db = Datagen.Retailer.generate ~scale:0.02 ~seed:31 () in
  let features = Datagen.Retailer.features in
  let report = Baseline.Agnostic.run db features in
  let aware = Ml.Model_intf.timed_fit (module Ml.Linreg.Model) db features in
  let join = Database.materialise_join db in
  let aware_rmse = Ml.Linreg.rmse_on aware.model join in
  Alcotest.(check int) "join rows" (Relation.cardinality join) report.join_cardinality;
  Alcotest.(check bool)
    (Printf.sprintf "aware rmse %.2f <= agnostic rmse %.2f" aware_rmse report.rmse)
    true
    (aware_rmse <= report.rmse +. 1e-9);
  (* and close to the closed-form optimum *)
  let closed =
    Ml.Model_intf.timed_fit
      ~options:{ Ml.Linreg.ridge = 1e-3; method_ = Ml.Linreg.Closed_form }
      (module Ml.Linreg.Model) db features
  in
  let closed_rmse = Ml.Linreg.rmse_on closed.model join in
  Alcotest.(check bool)
    (Printf.sprintf "aware %.4f within 2%% of closed form %.4f" aware_rmse closed_rmse)
    true
    (aware_rmse <= (closed_rmse *. 1.02) +. 1e-9)

let test_ivm_strategies_converge_on_retailer () =
  let db = Datagen.Retailer.generate ~scale:0.01 ~seed:32 () in
  let features = Datagen.Retailer.ivm_features in
  let stream = Datagen.Stream_gen.with_churn ~churn:0.2 db in
  let final strategy =
    let m = Fivm.Maintainer.create strategy db ~features in
    List.iter (Fivm.Maintainer.apply m) stream;
    Fivm.Maintainer.covariance m
  in
  let a = final Fivm.Maintainer.F_ivm in
  let b = final Fivm.Maintainer.Higher_order in
  let c = final Fivm.Maintainer.First_order in
  Alcotest.(check bool) "fivm = higher" true (Rings.Covariance.equal_rel ~eps:1e-7 a b);
  Alcotest.(check bool) "fivm = first" true (Rings.Covariance.equal_rel ~eps:1e-7 a c);
  (* the stream's net content is the database itself: counts must match *)
  let join = Database.materialise_join db in
  Alcotest.(check (float 0.5))
    "maintained count = join cardinality"
    (float_of_int (Relation.cardinality join))
    (Rings.Covariance.count a)

let all_datasets () =
  [
    ( "favorita",
      Datagen.Favorita.generate ~scale:0.03 ~seed:33 (),
      Datagen.Favorita.features );
    ("yelp", Datagen.Yelp.generate ~scale:0.03 ~seed:33 (), Datagen.Yelp.features);
    ("tpcds", Datagen.Tpcds.generate ~scale:0.03 ~seed:33 (), Datagen.Tpcds.features);
  ]

let test_models_train_everywhere () =
  List.iter
    (fun (name, db, features) ->
      let join = Database.materialise_join db in
      (* linear regression *)
      let r = Ml.Model_intf.timed_fit (module Ml.Linreg.Model) db features in
      let rmse = Ml.Linreg.rmse_on r.model join in
      Alcotest.(check bool) (name ^ ": finite linreg rmse") true (Float.is_finite rmse);
      (* decision tree (small) *)
      let tree =
        Ml.Decision_tree.train
          ~params:{ Ml.Decision_tree.default_params with max_depth = 2 }
          db
          { features with thresholds_per_feature = 4 }
      in
      Alcotest.(check bool) (name ^ ": tree built") true (Ml.Decision_tree.size tree >= 1);
      (* PCA over the numeric features *)
      let task = Fivm.Cov_task.make db ~features:(Aggregates.Feature.numeric features) in
      let storage = Fivm.Storage.create db in
      List.iter
        (fun u -> Fivm.Storage.apply storage u)
        (Datagen.Stream_gen.inserts_of_database db);
      ignore task;
      ignore storage)
    (all_datasets ())

let test_kmeans_pipeline () =
  let db = Datagen.Yelp.generate ~scale:0.05 ~seed:34 () in
  let dims = [ "bstars"; "uavgstars"; "useful" ] in
  let clustering = Ml.Kmeans.rk_means ~k:3 ~cells:12 db ~dims in
  Alcotest.(check int) "3 centroids" 3 (Array.length clustering.centroids);
  Alcotest.(check bool) "finite cost" true (Float.is_finite clustering.cost)

let test_chow_liu_on_retailer () =
  let db = Datagen.Retailer.generate ~scale:0.02 ~seed:35 () in
  let attrs = [ "subcategory"; "category"; "categoryCluster"; "rain"; "snow" ] in
  let tree = Ml.Chow_liu.tree_over_database db attrs in
  Alcotest.(check int) "spanning tree" (List.length attrs - 1) (List.length tree);
  (* the taxonomy chain subcategory - category - categoryCluster is the
     strongest dependency structure in the data *)
  let has a b =
    List.exists
      (fun (e : Ml.Chow_liu.edge) -> (e.a = a && e.b = b) || (e.a = b && e.b = a))
      tree
  in
  Alcotest.(check bool) "taxonomy edge" true
    (has "subcategory" "category" || has "category" "categoryCluster")

let test_bucketed_tree_training_agrees () =
  (* decision trees trained via the engine and via flat scans agree on
     predictions for a real dataset *)
  let db = Datagen.Favorita.generate ~scale:0.02 ~seed:36 () in
  let features =
    { (Datagen.Favorita.features) with thresholds_per_feature = 5 }
  in
  let params = { Ml.Decision_tree.default_params with max_depth = 2 } in
  let t_db = Ml.Decision_tree.train ~params db features in
  let join = Database.materialise_join db in
  let thresholds = Ml.Cart.thresholds_of_db db features in
  let t_flat = Ml.Decision_tree.train_flat ~params join features ~thresholds in
  let schema = Relation.schema join in
  Relation.iter
    (fun t ->
      let get a = t.(Schema.position schema a) in
      if
        Float.abs
          (Ml.Decision_tree.predict t_db get -. Ml.Decision_tree.predict t_flat get)
        > 1e-9
      then Alcotest.fail "tree predictions diverge")
    join

let () =
  Alcotest.run "integration"
    [
      ( "figure-2-flows",
        [ Alcotest.test_case "agnostic vs aware" `Quick test_two_flows_agree ] );
      ( "ivm",
        [
          Alcotest.test_case "strategies converge on retailer stream" `Quick
            test_ivm_strategies_converge_on_retailer;
        ] );
      ( "models",
        [
          Alcotest.test_case "train on all datasets" `Quick test_models_train_everywhere;
          Alcotest.test_case "rk-means pipeline" `Quick test_kmeans_pipeline;
          Alcotest.test_case "chow-liu on retailer" `Quick test_chow_liu_on_retailer;
          Alcotest.test_case "tree db = flat on favorita" `Quick
            test_bucketed_tree_training_agrees;
        ] );
    ]
