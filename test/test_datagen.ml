(* Tests for the synthetic dataset generators: acyclicity, key integrity,
   determinism, scaling, and feature-map consistency for all four datasets. *)

open Relational

type dataset = {
  dname : string;
  generate : ?scale:float -> seed:int -> unit -> Database.t;
  features : Aggregates.Feature.t;
  mi_attrs : string list;
  ivm_features : string list;
}

let datasets =
  [
    {
      dname = "retailer";
      generate = Datagen.Retailer.generate;
      features = Datagen.Retailer.features;
      mi_attrs = Datagen.Retailer.mi_attrs;
      ivm_features = Datagen.Retailer.ivm_features;
    };
    {
      dname = "favorita";
      generate = Datagen.Favorita.generate;
      features = Datagen.Favorita.features;
      mi_attrs = Datagen.Favorita.mi_attrs;
      ivm_features = Datagen.Favorita.ivm_features;
    };
    {
      dname = "yelp";
      generate = Datagen.Yelp.generate;
      features = Datagen.Yelp.features;
      mi_attrs = Datagen.Yelp.mi_attrs;
      ivm_features = Datagen.Yelp.ivm_features;
    };
    {
      dname = "tpcds";
      generate = Datagen.Tpcds.generate;
      features = Datagen.Tpcds.features;
      mi_attrs = Datagen.Tpcds.mi_attrs;
      ivm_features = Datagen.Tpcds.ivm_features;
    };
  ]

let small d = d.generate ~scale:0.02 ~seed:7 ()

let test_acyclic d () =
  let db = small d in
  match Database.join_tree db with
  | _ -> ()
  | exception Join_tree.Cyclic -> Alcotest.fail "cyclic schema"

let test_deterministic d () =
  let a = small d and b = small d in
  List.iter2
    (fun ra rb ->
      Alcotest.(check int)
        (Relation.name ra ^ " cardinality")
        (Relation.cardinality ra) (Relation.cardinality rb);
      Relation.iteri
        (fun i t ->
          if not (Tuple.equal t (Relation.get rb i)) then
            Alcotest.failf "tuple %d differs in %s" i (Relation.name ra))
        ra)
    (Database.relations a) (Database.relations b)

let test_seed_changes_data d () =
  let a = d.generate ~scale:0.02 ~seed:1 () in
  let b = d.generate ~scale:0.02 ~seed:2 () in
  let differs =
    List.exists2
      (fun ra rb ->
        Relation.cardinality ra <> Relation.cardinality rb
        || List.exists2
             (fun ta tb -> not (Tuple.equal ta tb))
             (Relation.to_list ra) (Relation.to_list rb))
      (Database.relations a) (Database.relations b)
  in
  Alcotest.(check bool) "different seeds differ" true differs

let test_joinable d () =
  (* every fact tuple must join: the full join is at least as big as the
     largest relation would suggest for key-fkey schemas — we only check
     non-emptiness and fkey resolution *)
  let db = small d in
  let join = Database.materialise_join db in
  Alcotest.(check bool) "join non-empty" true (Relation.cardinality join > 0)

let test_scaling d () =
  let s1 = d.generate ~scale:0.02 ~seed:3 () in
  let s2 = d.generate ~scale:0.06 ~seed:3 () in
  Alcotest.(check bool) "larger scale, more tuples" true
    (Database.total_cardinality s2 > Database.total_cardinality s1)

let test_features_exist d () =
  let db = small d in
  let attrs = Database.attribute_names db in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " exists") true (List.mem f attrs))
    (Aggregates.Feature.all d.features @ d.mi_attrs @ d.ivm_features)

(* Foreign-key consistency, schema-agnostically: for every attribute shared
   between relations, a relation in which the values are UNIQUE (a key —
   the dimension side) must enumerate a superset of every other relation's
   values for it. Facts drawing keys a dimension never generated would make
   tuples silently drop out of joins — exactly the corruption hostile
   streams at scale would amplify. Checked at scale 0.01 and 0.1 across
   seeds (the qcheck input). *)
let fk_consistent d =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:4 ~name:(d.dname ^ " FK-consistent at scale {0.01, 0.1}")
       QCheck2.Gen.(pair (oneofl [ 0.01; 0.1 ]) (int_range 1 1000))
       (fun (scale, seed) ->
         let db = d.generate ~scale ~seed () in
         let values rel pos =
           let tbl = Hashtbl.create 256 in
           Relation.iter (fun t -> Hashtbl.replace tbl t.(pos) ()) rel;
           tbl
         in
         let position rel attr =
           let rec find i = function
             | [] -> None
             | a :: _ when a = attr -> Some i
             | _ :: rest -> find (i + 1) rest
           in
           find 0 (Schema.names (Relation.schema rel))
         in
         let rels = Database.relations db in
         let attrs =
           List.sort_uniq compare
             (List.concat_map (fun r -> Schema.names (Relation.schema r)) rels)
         in
         List.for_all
           (fun attr ->
             let holders =
               List.filter_map
                 (fun r -> Option.map (fun p -> (r, p)) (position r attr))
                 rels
             in
             if List.length holders < 2 then true
             else
               let with_values =
                 List.map (fun (r, p) -> (r, values r p)) holders
               in
               let owners =
                 List.filter
                   (fun (r, vs) -> Hashtbl.length vs = Relation.cardinality r)
                   with_values
               in
               List.for_all
                 (fun (_, owner_vs) ->
                   List.for_all
                     (fun (_, vs) ->
                       Hashtbl.fold
                         (fun v () acc -> acc && Hashtbl.mem owner_vs v)
                         vs true)
                     with_values)
                 owners)
           attrs))

(* A corrupted cell in a generated relation's CSV must surface as a LOCATED
   [Csvio.Malformed] — the 1-based source line and column of the bad cell,
   not a generic parse failure half a file away. *)
let test_csv_malformed d () =
  let db = d.generate ~scale:0.01 ~seed:13 () in
  let rel =
    List.find
      (fun r ->
        Relation.cardinality r >= 3
        && List.exists
             (fun (a : Schema.attr) -> a.Schema.ty <> Value.TStr)
             (Schema.attrs (Relation.schema r)))
      (Database.relations db)
  in
  let schema = Relation.schema rel in
  let col =
    (* first non-string column: "bogus" cannot parse there *)
    let rec find i =
      if (Schema.attr_at schema i).Schema.ty <> Value.TStr then i else find (i + 1)
    in
    find 0
  in
  let rows = Relation.csv_rows rel in
  let bad_row = 2 in
  let rows =
    List.mapi
      (fun i row ->
        if i = bad_row then List.mapi (fun j c -> if j = col then "bogus" else c) row
        else row)
      rows
  in
  match Relation.of_csv_rows (Relation.name rel) schema rows with
  | _ -> Alcotest.fail "corrupted cell accepted"
  | exception Util.Csvio.Malformed { line; column; reason } ->
      Alcotest.(check int) "line points at the corrupted row" (bad_row + 1) line;
      Alcotest.(check int) "column points at the corrupted cell" (col + 1) column;
      Alcotest.(check bool) "reason names the cell contents" true
        (let rec contains i =
           i + 5 <= String.length reason
           && (String.sub reason i 5 = "bogus" || contains (i + 1))
         in
         contains 0)

let test_lmfao_runs d () =
  (* the covariance batch must run end to end on each dataset *)
  let db = d.generate ~scale:0.01 ~seed:11 () in
  let batch = Aggregates.Batch.covariance d.features in
  let r = Lmfao.Engine.eval db batch in
  let results = r.Lmfao.Engine.keyed and stats = r.Lmfao.Engine.stats in
  Alcotest.(check int) "all aggregates answered"
    (Aggregates.Batch.size batch) (List.length results);
  Alcotest.(check bool) "sharing found" true (stats.shared_away >= 0)

let suite d =
  ( d.dname,
    [
      Alcotest.test_case "acyclic schema" `Quick (test_acyclic d);
      Alcotest.test_case "deterministic per seed" `Quick (test_deterministic d);
      Alcotest.test_case "seed changes data" `Quick (test_seed_changes_data d);
      Alcotest.test_case "join non-empty" `Quick (test_joinable d);
      Alcotest.test_case "scaling monotone" `Quick (test_scaling d);
      Alcotest.test_case "feature attrs exist" `Quick (test_features_exist d);
      Alcotest.test_case "covariance batch via LMFAO" `Quick (test_lmfao_runs d);
      fk_consistent d;
      Alcotest.test_case "corrupted CSV cell is located" `Quick (test_csv_malformed d);
    ] )

(* ---- the lattice star workload ----

   CRC-32 over each update's relation, tuple bits and multiplicity. The
   pinned streams are the default input of `borg serve lattice` (seed 42,
   400 steps) and the bench's insert-only traffic preload (seed 42, 300
   inserts); any change to the star's draw order moves them. *)
let star_digest updates =
  let b = Buffer.create 4096 in
  List.iter
    (fun (u : Fivm.Delta.update) ->
      Codec.str b u.relation;
      Codec.tuple b u.tuple;
      Codec.i64 b u.multiplicity)
    updates;
  Printf.sprintf "%08x" (Util.Checksum.crc32 (Buffer.contents b))

let test_star_streams_pinned () =
  let module Star = Datagen.Star in
  Alcotest.(check string) "insert/delete stream" "45c26e9f"
    (star_digest (Star.stream ~value:Star.lattice ~seed:42 ~steps:400));
  let rng = Util.Prng.create 42 in
  Alcotest.(check string) "insert-only stream" "ecc7de76"
    (star_digest (List.init 300 (fun _ -> Star.insert ~value:Star.lattice rng)))

let () =
  Alcotest.run "datagen"
    (List.map suite datasets
    @ [ ("star", [ Alcotest.test_case "pinned stream digests" `Quick test_star_streams_pinned ]) ])
