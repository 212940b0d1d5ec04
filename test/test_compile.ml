(* Tests for the staged-compilation engine.

   The headline property is BIT-identity: [Compile.Engine] must produce
   exactly the floats [Lmfao.Engine] produces — same decomposition, same
   accumulation order — across random acyclic databases and batches
   (including filters and group-bys), every option combination, all four
   datagen schemas, every node batch of trained regression and
   classification trees, and the cyclic-fallback path. A second qcheck suite
   checks stage equivalence of the IR passes: executing the plan after
   each pass gives bitwise the same results as executing the raw lowered
   plan. *)

open Relational
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch
module Feature = Aggregates.Feature
module Engine = Lmfao.Engine
module Cengine = Compile.Engine

let int n = Value.Int n
let flt x = Value.Float x

(* Same star database as test_lmfao: fact F(a,b,c,m1,m2) with dims
   D1(a,x,u), D2(b,y), D3(c,z); all floats integer-valued so results are
   exact and bit comparisons are meaningful. *)
let random_star rng card domain =
  let mk name attrs gen =
    let schema = Schema.make attrs in
    let rel = Relation.create name schema in
    for _ = 1 to card do
      Relation.append rel (gen ())
    done;
    rel
  in
  let ri d = int (Util.Prng.int rng d) in
  let rf () = flt (float_of_int (Util.Prng.int rng 10)) in
  let f =
    mk "F"
      [ ("a", Value.TInt); ("b", Value.TInt); ("c", Value.TInt);
        ("m1", Value.TFloat); ("m2", Value.TFloat) ]
      (fun () -> [| ri domain; ri domain; ri domain; rf (); rf () |])
  in
  let d1 =
    mk "D1"
      [ ("a", Value.TInt); ("x", Value.TInt); ("u", Value.TFloat) ]
      (fun () -> [| ri domain; ri 3; rf () |])
  in
  let d2 =
    mk "D2"
      [ ("b", Value.TInt); ("y", Value.TInt) ]
      (fun () -> [| ri domain; ri 3 |])
  in
  let d3 =
    mk "D3"
      [ ("c", Value.TInt); ("z", Value.TInt) ]
      (fun () -> [| ri domain; ri 3 |])
  in
  Database.create "star" [ f; d1; d2; d3 ]

let features =
  Feature.make ~response:"m1" ~thresholds_per_feature:3
    ~continuous:[ "m2"; "u" ] ~categorical:[ "x"; "y"; "z" ] ()

(* Strict bit equality of keyed results (same ids and rows in the same
   order), reporting the first differing coordinate under [what]. *)
let agrees what got reference =
  match Oracle.keyed got reference with
  | Ok () -> true
  | Error diff ->
      Format.eprintf "%s at %s@." what diff;
      false

let bit_exact = Alcotest.(result unit string)

let check_compiled_vs_interpreter ~options db batch =
  agrees
    ("COMPILED MISMATCH on " ^ batch.Batch.name)
    (Cengine.eval_batch ~options db batch)
    (Engine.eval_batch ~options db batch)

let batch_of name db =
  match name with
  | "covariance" -> Batch.covariance features
  | "decision" -> Batch.decision_node ~db features
  | "mutualinfo" -> Batch.mutual_information [ "x"; "y"; "z" ]
  | "kmeans" -> Batch.kmeans features
  | _ -> assert false

(* Random ad-hoc batches: products with powers, group-bys, and one- or
   two-conjunct single-attribute filters (>=, <, =, IN, NOT) over the star
   schema. Integer-valued constants keep evaluation exact. *)
let random_batch rng =
  let numeric = [ "m1"; "m2"; "u" ] in
  let categorical = [ "x"; "y"; "z"; "a"; "b"; "c" ] in
  let pick l = List.nth l (Util.Prng.int rng (List.length l)) in
  let subset l =
    List.filter (fun _ -> Util.Prng.int rng 3 = 0) l
  in
  let rec random_conjunct () =
    match Util.Prng.int rng 5 with
    | 0 -> Predicate.Ge (pick numeric, flt (float_of_int (Util.Prng.int rng 10)))
    | 1 -> Predicate.Lt (pick numeric, flt (float_of_int (Util.Prng.int rng 10)))
    | 2 -> Predicate.Eq (pick categorical, int (Util.Prng.int rng 4))
    | 3 ->
        Predicate.In
          (pick categorical, [ int (Util.Prng.int rng 4); int (Util.Prng.int rng 4) ])
    | _ ->
        (* a tree's right-hand categorical branch is [Not (Eq _)] *)
        Predicate.Not (random_conjunct ())
  in
  let random_spec i =
    let terms =
      List.map (fun a -> (a, 1 + Util.Prng.int rng 2)) (subset numeric)
    in
    let group_by = subset categorical in
    let filter =
      match Util.Prng.int rng 3 with
      | 0 -> Predicate.True
      | 1 -> random_conjunct ()
      | _ -> Predicate.And (random_conjunct (), random_conjunct ())
    in
    Spec.make ~filter ~id:(Printf.sprintf "q%d" i) ~terms ~group_by ()
  in
  let n = 1 + Util.Prng.int rng 8 in
  { Batch.name = "random"; aggregates = List.init n random_spec }

let default = Engine.default_options

let all_options =
  [
    ("default", default);
    ("no-share", { default with Engine.share = false });
    ("single-root", { default with Engine.multi_root = false });
    ("parallel", { default with Engine.parallel = true; chunk_threshold = 4 });
    ( "no-share single-root",
      { default with Engine.share = false; multi_root = false } );
  ]

let compiled_matches_interpreter batch_name options_desc options =
  QCheck2.Test.make ~count:12
    ~name:
      (Printf.sprintf "compiled = interpreter bitwise: %s (%s)" batch_name
         options_desc)
    QCheck2.Gen.(triple (int_range 0 25) (int_range 1 5) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let db = random_star rng card domain in
      check_compiled_vs_interpreter ~options db (batch_of batch_name db))

let random_batches_match options_desc options =
  QCheck2.Test.make ~count:30
    ~name:
      (Printf.sprintf "compiled = interpreter bitwise: random batches (%s)"
         options_desc)
    QCheck2.Gen.(triple (int_range 0 30) (int_range 1 5) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let db = random_star rng card domain in
      check_compiled_vs_interpreter ~options db (random_batch rng))

(* ---- all datagen schemas ---- *)

let datagen_schemas () =
  List.iter
    (fun (name, db, feats, mi) ->
      List.iter
        (fun batch ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s bitwise" name batch.Batch.name)
            true
            (check_compiled_vs_interpreter ~options:default db batch))
        [
          Batch.covariance feats;
          Batch.decision_node ~db feats;
          Batch.mutual_information mi;
        ])
    [
      ( "retailer",
        Datagen.Retailer.generate ~scale:0.02 ~seed:11 (),
        Datagen.Retailer.features,
        Datagen.Retailer.mi_attrs );
      ( "favorita",
        Datagen.Favorita.generate ~scale:0.02 ~seed:12 (),
        Datagen.Favorita.features,
        Datagen.Favorita.mi_attrs );
      ( "yelp",
        Datagen.Yelp.generate ~scale:0.02 ~seed:13 (),
        Datagen.Yelp.features,
        Datagen.Yelp.mi_attrs );
      ( "tpcds",
        Datagen.Tpcds.generate ~scale:0.02 ~seed:14 (),
        Datagen.Tpcds.features,
        Datagen.Tpcds.mi_attrs );
    ]

(* ---- cyclic fallback ---- *)

let cyclic_fallback () =
  let tri name a b rows =
    Relation.of_list name
      (Schema.make [ (a, Value.TInt); (b, Value.TInt) ])
      (List.map (fun (x, y) -> [| int x; int y |]) rows)
  in
  let db =
    Database.create "triangle"
      [
        tri "R" "a" "b" [ (1, 2); (2, 3); (1, 3) ];
        tri "S" "b" "c" [ (2, 3); (3, 1); (3, 4) ];
        tri "T" "c" "a" [ (3, 1); (1, 2); (4, 1) ];
      ]
  in
  let batch =
    {
      Batch.name = "tri";
      aggregates =
        [ Spec.count ~id:"n"; Spec.make ~id:"ga" ~terms:[] ~group_by:[ "a" ] () ];
    }
  in
  Obs.reset ();
  let ok =
    Obs.with_enabled true (fun () ->
        check_compiled_vs_interpreter ~options:default db batch)
  in
  Alcotest.(check bool) "cyclic batch bitwise via fallback" true ok;
  Alcotest.(check bool) "fallback counted" true
    (Obs.counter_value_by_name "lmfao.compile.cyclic" > 0);
  Obs.reset ()

(* ---- plan cache ---- *)

let plan_cache_behaviour () =
  let rng = Util.Prng.create 23 in
  let db = random_star rng 30 4 in
  let batch = Batch.covariance features in
  Obs.reset ();
  Obs.with_enabled true (fun () ->
      let first = Cengine.eval_batch db batch in
      let plans0 = Obs.counter_value_by_name "lmfao.compile.plans" in
      let again = Cengine.eval_batch db batch in
      Alcotest.check bit_exact "second run bitwise equal" (Ok ())
        (Oracle.keyed again first);
      Alcotest.(check bool) "second run hit the plan cache" true
        (Obs.counter_value_by_name "lmfao.compile.cache_hits" > 0);
      Alcotest.(check int) "second run compiled nothing" plans0
        (Obs.counter_value_by_name "lmfao.compile.plans");
      (* a compiled plan revalidates against the live database: a fresh db
         with the same schema reuses it, and stays bit-identical *)
      let rng2 = Util.Prng.create 99 in
      let db2 = random_star rng2 25 3 in
      Alcotest.(check bool) "fresh data through the cached plan" true
        (check_compiled_vs_interpreter ~options:default db2 batch));
  Obs.reset ()

(* The plan signature covers the cardinality-dependent root assignment:
   pure counts root at the SMALLEST relation, so growing a different
   relation to be smallest must recompile rather than reuse a stale
   rooting (bit-identity with a fresh interpreter run would break). *)
let cache_revalidates_roots () =
  let mk name attrs rows =
    Relation.of_list name (Schema.make attrs)
      (List.map (Array.map (fun v -> v)) rows)
  in
  let db small_d =
    let f_rows =
      List.init 6 (fun i -> [| int (i mod 3); flt (float_of_int i) |])
    in
    let d_rows = List.init (if small_d then 2 else 9) (fun i -> [| int (i mod 3); int i |]) in
    Database.create "two"
      [
        mk "F" [ ("a", Value.TInt); ("m", Value.TFloat) ] f_rows;
        mk "D" [ ("a", Value.TInt); ("x", Value.TInt) ] d_rows;
      ]
  in
  let batch = { Batch.name = "counts"; aggregates = [ Spec.count ~id:"n" ] } in
  Alcotest.(check bool) "small D" true
    (check_compiled_vs_interpreter ~options:default (db true) batch);
  (* same fingerprint, different smallest relation -> must recompile *)
  Alcotest.(check bool) "large D (roots moved)" true
    (check_compiled_vs_interpreter ~options:default (db false) batch)

(* Results are keyed by aggregate id, but [Spec.canonical] leaves the id
   out: two batches that permute ids over the same specs once shared a
   fingerprint, and the second reused the first's plan, answering [a] and
   [b] swapped. *)
let permuted_ids () =
  let db = random_star (Util.Prng.create 5) 20 4 in
  let batch a b =
    {
      Batch.name = "perm";
      aggregates =
        [
          Spec.make ~id:a ~terms:[ ("m1", 1) ] ~group_by:[] ();
          Spec.make ~id:b ~terms:[ ("m2", 1) ] ~group_by:[] ();
        ];
    }
  in
  let sum id = Spec.scalar_result (List.assoc id (Engine.eval_batch db (batch "a" "b"))) in
  Alcotest.(check bool) "SUM(m1) <> SUM(m2) on this data" true (sum "a" <> sum "b");
  Alcotest.(check bool) "fingerprints differ" true
    (Batch.fingerprint (batch "a" "b") <> Batch.fingerprint (batch "b" "a"));
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) (Printf.sprintf "[%s; %s] bitwise" a b) true
        (check_compiled_vs_interpreter ~options:default db (batch a b)))
    [ ("a", "b"); ("b", "a") ]

(* Two batches with different aggregates but the same CRC-32 fingerprint,
   found by a birthday search over random 8-byte batch names (about 2^16
   tries; CRC-32 is linear, so names that differ only in a few digits
   never collide): a hit must compare the cached batch, not just the
   key. *)
let colliding_batches () =
  let rng = Util.Prng.create 1 in
  let batch i =
    {
      Batch.name = String.init 8 (fun _ -> Char.chr (Util.Prng.int rng 256));
      aggregates =
        [ Spec.make ~id:"s" ~terms:[ ((if i land 1 = 0 then "m1" else "m2"), 1) ] ~group_by:[] () ];
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
  search 0

let fingerprint_collision () =
  let db = random_star (Util.Prng.create 5) 20 4 in
  let first, second = colliding_batches () in
  Alcotest.(check int) "same fingerprint" (Batch.fingerprint first)
    (Batch.fingerprint second);
  List.iter
    (fun b ->
      Alcotest.(check bool) (b.Batch.name ^ " bitwise") true
        (check_compiled_vs_interpreter ~options:default db b))
    [ first; second; first ]

(* Every node batch of a trained tree through both engines. A node's path
   is its ancestors' split predicates, conjoined the way the trainers
   conjoin them, so walking the tree rebuilds exactly the batches training
   evaluated (leaves included). [children] gives a node's split, count and
   subtrees. *)
let node_paths (children : 't -> (Ml.Decision_tree.split * float * 't * 't) option) tree =
  let extend path p =
    match path with Predicate.True -> p | _ -> Predicate.And (path, p)
  in
  let rec walk path t acc =
    let acc = path :: acc in
    match children t with
    | None -> acc
    | Some (split, _, l, r) ->
        let pl, pr =
          match split with
          | Ml.Decision_tree.Threshold (x, c) ->
              (Predicate.Ge (x, flt c), Predicate.Lt (x, flt c))
          | Category (k, v) -> (Predicate.Eq (k, v), Predicate.Not (Predicate.Eq (k, v)))
        in
        walk (extend path pr) r (walk (extend path pl) l acc)
  in
  List.rev (walk Predicate.True tree [])

let regression_children = function
  | Ml.Decision_tree.Leaf _ -> None
  | Node { split; left; right; count } -> Some (split, count, left, right)

let class_children = function
  | Ml.Classification_tree.Leaf _ -> None
  | Node { split; left; right; count } -> Some (split, count, left, right)

(* The CRC-32 of a tree's bit image: floats in hex, values through
   [Value.to_string], [leaf] writes a leaf. *)
let tree_digest children leaf tree =
  let b = Buffer.create 1024 in
  let rec image t =
    match children t with
    | None -> leaf b t
    | Some (split, count, l, r) ->
        (match split with
        | Ml.Decision_tree.Threshold (x, c) -> Printf.bprintf b "NT%s%h" x c
        | Category (k, v) -> Printf.bprintf b "NC%s%s" k (Value.to_string v));
        Printf.bprintf b ",%h(" count;
        image l;
        image r;
        Buffer.add_char b ')'
  in
  image tree;
  Printf.sprintf "%08x" (Util.Checksum.crc32 (Buffer.contents b))

let regression_digest =
  tree_digest regression_children (fun b -> function
    | Ml.Decision_tree.Leaf { prediction; count } -> Printf.bprintf b "L%h,%h;" prediction count
    | Node _ -> ())

let class_digest =
  tree_digest class_children (fun b -> function
    | Ml.Classification_tree.Leaf { prediction; counts } ->
        Printf.bprintf b "L%s[" (Value.to_string prediction);
        List.iter (fun (v, c) -> Printf.bprintf b "%s:%h," (Value.to_string v) c) counts;
        Buffer.add_char b ']'
    | Node _ -> ())

(* digests of the depth-3 regression, Gini and entropy trees *)
let tree_digests =
  [
    ("retailer", ("d223c03d", "e8ca913f", "e8ca913f"));
    ("favorita", ("29a35743", "f44423be", "89f62654"));
    ("yelp", ("09cb9283", "3b3995c0", "3b3995c0"));
    ("tpcds", ("05b672dc", "3429ae48", "3429ae48"));
  ]

let datagen_sets () =
  [
    ("retailer", Datagen.Retailer.generate ~scale:0.01 ~seed:21 (), Datagen.Retailer.features);
    ("favorita", Datagen.Favorita.generate ~scale:0.02 ~seed:22 (), Datagen.Favorita.features);
    ("yelp", Datagen.Yelp.generate ~scale:0.02 ~seed:23 (), Datagen.Yelp.features);
    ("tpcds", Datagen.Tpcds.generate ~scale:0.02 ~seed:24 (), Datagen.Tpcds.features);
  ]

let check_nodes name db specs_of paths =
  List.iteri
    (fun i path ->
      let batch = { Batch.name = "node"; aggregates = specs_of path } in
      Alcotest.(check bool) (Printf.sprintf "%s node %d bitwise" name i) true
        (check_compiled_vs_interpreter ~options:default db batch))
    paths

let tree_node_batches () =
  List.iter
    (fun (name, db, (f : Feature.t)) ->
      let thresholds = Ml.Cart.thresholds_of_db db f in
      let tree =
        Ml.Decision_tree.train
          ~params:{ Ml.Decision_tree.default_params with max_depth = 3 }
          db f
      in
      let paths = node_paths regression_children tree in
      Alcotest.(check int) (name ^ " one batch per node")
        (Ml.Decision_tree.size tree) (List.length paths);
      Alcotest.(check bool) (name ^ " tree splits") true (List.length paths > 1);
      check_nodes (name ^ " regression") db
        (fun path -> Ml.Decision_tree.node_specs ~path f thresholds)
        paths;
      (* classify the first categorical feature from the rest *)
      let class_attr = List.hd f.categorical in
      let cf =
        Feature.make ~thresholds_per_feature:f.thresholds_per_feature
          ~continuous:f.continuous ~categorical:(List.tl f.categorical) ()
      in
      let ctree criterion =
        Ml.Classification_tree.train
          ~params:{ Ml.Classification_tree.default_params with max_depth = 3; criterion }
          db ~class_attr cf
      in
      let ctree = ctree Gini and etree = ctree Entropy in
      Alcotest.(check (triple string string string)) (name ^ " tree digests")
        (List.assoc name tree_digests)
        (regression_digest tree, class_digest ctree, class_digest etree);
      let cpaths = node_paths class_children ctree in
      Alcotest.(check int) (name ^ " one class batch per node")
        (Ml.Classification_tree.size ctree) (List.length cpaths);
      check_nodes (name ^ " classification") db
        (fun path -> Ml.Classification_tree.node_specs ~path ~class_attr cf thresholds)
        cpaths)
    (datagen_sets ())

(* Filling the plan cache past its capacity evicts least recently used
   plans: the size gauge never exceeds the cap, evicted batches recompile
   to the interpreter's bits, and the newest entry still hits. *)
let bounded_cache () =
  let db = random_star (Util.Prng.create 31) 20 4 in
  let batch i =
    {
      Batch.name = Printf.sprintf "fill%d" i;
      aggregates =
        [
          Spec.make ~id:"s"
            ~filter:(Predicate.Ge ("m1", flt (float_of_int (i mod 10))))
            ~terms:[ ("m2", 1) ] ~group_by:[] ();
        ];
    }
  in
  let cap = Cengine.cache_capacity in
  let size = Obs.gauge "lmfao.compile.cache_size" in
  let counter = Obs.counter_value_by_name in
  Alcotest.(check bool) "capacity >= 64" true (cap >= 64);
  Obs.reset ();
  Obs.with_enabled true (fun () ->
      let n = cap + 16 in
      for i = 0 to n - 1 do
        ignore (Cengine.eval_batch db (batch i));
        if Obs.gauge_value size > float_of_int cap then
          Alcotest.failf "cache size %g above capacity %d" (Obs.gauge_value size) cap
      done;
      Alcotest.(check (float 0.0)) "cache full" (float_of_int cap) (Obs.gauge_value size);
      let plans = counter "lmfao.compile.plans" in
      for i = 0 to 15 do
        Alcotest.(check bool) (Printf.sprintf "evicted fill%d bitwise" i) true
          (check_compiled_vs_interpreter ~options:default db (batch i))
      done;
      Alcotest.(check int) "evicted plans recompiled" (plans + 16)
        (counter "lmfao.compile.plans");
      let hits = counter "lmfao.compile.cache_hits" in
      ignore (Cengine.eval_batch db (batch (n - 1)));
      Alcotest.(check int) "newest entry kept" (hits + 1)
        (counter "lmfao.compile.cache_hits");
      Alcotest.(check (float 0.0)) "still at capacity" (float_of_int cap)
        (Obs.gauge_value size));
  Obs.reset ()

(* ---- stage equivalence of the IR passes ---- *)

let lowered_plans db batch options =
  let popts = { Lmfao.Plan.share = false; multi_root = options.Engine.multi_root } in
  let jt, groups = Lmfao.Plan.group_by_root popts db batch in
  let stats = Lmfao.Plan.fresh_stats () in
  List.filter_map
    (fun (root, specs) ->
      if specs = [] then None
      else Some (Compile.Lower.rooted (Lmfao.Plan.build popts ~stats jt ~root specs)))
    groups

let run_plans ~options db plans =
  List.concat_map (Compile.Exec.compute_rooted ~options db) plans

let passes_preserve_results =
  QCheck2.Test.make ~count:20
    ~name:"each IR pass preserves execution bitwise"
    QCheck2.Gen.(triple (int_range 0 25) (int_range 1 5) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let db = random_star rng card domain in
      let batch =
        if Util.Prng.int rng 2 = 0 then Batch.covariance features
        else random_batch rng
      in
      let options = default in
      let raw = lowered_plans db batch options in
      let reference = run_plans ~options db raw in
      (* cumulative: after each stage of the pipeline, results unchanged *)
      let _, ok =
        List.fold_left
          (fun (plans, ok) (pass_name, pass) ->
            let plans = List.map pass plans in
            let got = run_plans ~options db plans in
            (plans, ok && agrees ("PASS " ^ pass_name ^ " changed results") got reference))
          (raw, true)
          (Compile.Passes.all ~share:true)
      in
      (* and each pass individually on the raw plan *)
      List.for_all
        (fun (pass_name, pass) ->
          agrees
            ("PASS " ^ pass_name ^ " (solo) changed results")
            (run_plans ~options db (List.map pass raw))
            reference)
        (Compile.Passes.all ~share:true)
      && ok)

(* Slot merging really fires: an unshared covariance lowering has many
   identical fact-side partials, and the merged plan must shrink. *)
let merge_reduces_slots () =
  let rng = Util.Prng.create 7 in
  let db = random_star rng 30 4 in
  let batch = Batch.covariance features in
  let raw = lowered_plans db batch default in
  let total_slots plans =
    let rec node_slots (n : Compile.Ir.node) =
      Array.length n.Compile.Ir.n_slots
      + Array.fold_left (fun acc c -> acc + node_slots c) 0 n.Compile.Ir.n_children
    in
    List.fold_left (fun acc (r : Compile.Ir.rooted) -> acc + node_slots r.Compile.Ir.r_node) 0 plans
  in
  let merged = List.map Compile.Passes.merge_slots raw in
  Alcotest.(check bool)
    (Printf.sprintf "merged %d < raw %d slots" (total_slots merged) (total_slots raw))
    true
    (total_slots merged < total_slots raw);
  let reference = run_plans ~options:default db raw in
  Alcotest.check bit_exact "merged still bitwise" (Ok ())
    (Oracle.keyed (run_plans ~options:default db merged) reference)

(* Dead-slot elimination: drop an output and the unreferenced slot chain
   disappears, leaving the remaining output bit-identical. *)
let dead_slot_elimination () =
  let rng = Util.Prng.create 9 in
  let db = random_star rng 25 4 in
  let batch =
    {
      Batch.name = "two";
      aggregates =
        [
          Spec.make ~id:"s1" ~terms:[ ("m1", 1) ] ~group_by:[] ();
          Spec.make ~id:"s2" ~terms:[ ("m2", 2) ] ~group_by:[] ();
        ];
    }
  in
  match lowered_plans db batch default with
  | [ plan ] ->
      let reference = run_plans ~options:default db [ plan ] in
      let orphaned =
        {
          plan with
          Compile.Ir.r_outputs =
            Array.sub plan.Compile.Ir.r_outputs 0 1 (* drop s2's output *);
        }
      in
      let cleaned = Compile.Passes.dead_slots orphaned in
      let slots (r : Compile.Ir.rooted) =
        Array.length r.Compile.Ir.r_node.Compile.Ir.n_slots
      in
      Alcotest.(check bool)
        (Printf.sprintf "dead slots dropped (%d -> %d)" (slots orphaned)
           (slots cleaned))
        true
        (slots cleaned < slots orphaned);
      let got = run_plans ~options:default db [ cleaned ] in
      Alcotest.check bit_exact "surviving output bitwise" (Ok ())
        (Oracle.keyed got [ List.hd reference ])
  | plans ->
      Alcotest.failf "expected one rooted plan, got %d" (List.length plans)

(* ---- allocation of the compiled scan ---- *)

(* Minor words one [Compile.Engine.run] allocates per scanned tuple, after
   a warm-up run. *)
let run_words_per_tuple db batch =
  let plan = Cengine.compile db batch in
  ignore (Cengine.run plan db);
  Obs.reset ();
  let words, tuples =
    Obs.with_enabled true (fun () ->
        let before = Gc.minor_words () in
        ignore (Cengine.run plan db);
        ( Gc.minor_words () -. before,
          Obs.counter_value_by_name "lmfao.compile.tuples_scanned" ))
  in
  Obs.reset ();
  words /. float_of_int tuples

(* Scalar slots run from the register file without allocating, so the
   words a scan allocates per tuple (keys, probes, view rows) do not grow
   with the number of scalar slots: the 528-aggregate covariance batch over
   all 31 numeric Retailer features stays within 4 words per tuple of the
   66-aggregate batch over 10 of them. *)
let scalar_slots_do_not_allocate () =
  let db = Datagen.Retailer.generate ~scale:0.05 ~seed:3 () in
  let large = Batch.covariance_numeric (Feature.numeric Datagen.Retailer.features) in
  let small = Batch.covariance_numeric Datagen.Retailer.ivm_features in
  Alcotest.(check (pair int int)) "batch sizes" (528, 66)
    (List.length large.Batch.aggregates, List.length small.Batch.aggregates);
  let w_large = run_words_per_tuple db large in
  let w_small = run_words_per_tuple db small in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words/tuple (528 aggregates) <= %.1f (66) + 4" w_large
       w_small)
    true
    (w_large <= w_small +. 4.0)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "compile"
    [
      ( "differential",
        List.concat_map
          (fun (desc, options) ->
            List.map
              (fun b -> qcheck (compiled_matches_interpreter b desc options))
              [ "covariance"; "decision"; "mutualinfo"; "kmeans" ])
          all_options
        @ List.map
            (fun (desc, options) -> qcheck (random_batches_match desc options))
            all_options );
      ( "datagen",
        [ Alcotest.test_case "all schemas bitwise" `Quick datagen_schemas ] );
      ("cyclic", [ Alcotest.test_case "interpreter fallback" `Quick cyclic_fallback ]);
      ( "cache",
        [
          Alcotest.test_case "fingerprint cache hits and reuse" `Quick
            plan_cache_behaviour;
          Alcotest.test_case "signature revalidates roots" `Quick
            cache_revalidates_roots;
          Alcotest.test_case "permuted ids do not share a plan" `Quick
            permuted_ids;
          Alcotest.test_case "fingerprint collision does not share a plan"
            `Quick fingerprint_collision;
          Alcotest.test_case "bounded: LRU eviction, size gauge" `Quick
            bounded_cache;
        ] );
      ( "tree-nodes",
        [
          Alcotest.test_case "every node batch bitwise, four datasets" `Quick
            tree_node_batches;
        ] );
      ( "passes",
        [
          qcheck passes_preserve_results;
          Alcotest.test_case "merge reduces slots" `Quick merge_reduces_slots;
          Alcotest.test_case "dead-slot elimination" `Quick dead_slot_elimination;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "scalar slots do not allocate per tuple" `Quick
            scalar_slots_do_not_allocate;
        ] );
    ]
