(* The bit-equality oracle itself: IEEE bit patterns (signed zeros, NaN
   payloads), strict vs canonical order for keyed results, and a located
   diff naming the first differing coordinate for every comparator. *)

open Relational
module Cov = Rings.Covariance

let verdict = Alcotest.(result unit string)
let check_diff what want got = Alcotest.check verdict what (Error want) got
let flt x = Value.Float x
let nan_with payload = Int64.float_of_bits (Int64.logor 0x7ff8000000000000L payload)

(* ---- floats by bit pattern ---- *)

let test_signed_zero () =
  Alcotest.check verdict "0.0 = 0.0" (Ok ()) (Oracle.value (flt 0.0) (flt 0.0));
  check_diff "-0.0 <> 0.0" "-0x0p+0 vs 0x0p+0" (Oracle.value (flt (-0.0)) (flt 0.0));
  check_diff "0.0 <> -0.0" "0x0p+0 vs -0x0p+0" (Oracle.value (flt 0.0) (flt (-0.0)))

let test_nan_payloads () =
  Alcotest.check verdict "nan = nan (same payload)" (Ok ())
    (Oracle.value (flt Float.nan) (flt Float.nan));
  Alcotest.check verdict "custom payload = itself" (Ok ())
    (Oracle.value (flt (nan_with 5L)) (flt (nan_with 5L)));
  check_diff "payloads 1 and 2 differ"
    "nan(0x7ff8000000000001) vs nan(0x7ff8000000000002)"
    (Oracle.value (flt (nan_with 1L)) (flt (nan_with 2L)))

let test_value_types () =
  Alcotest.check verdict "strings" (Ok ()) (Oracle.value (Value.Str "a") (Value.Str "a"));
  Alcotest.check verdict "nulls" (Ok ()) (Oracle.value Value.Null Value.Null);
  check_diff "int vs float" "1 vs 0x1p+0" (Oracle.value (Value.Int 1) (flt 1.0))

(* ---- covariance triples ---- *)

let triple () =
  let t = Cov.zero 3 in
  t.c <- 4.0;
  Array.iteri (fun i _ -> t.s.(i) <- float_of_int (i + 1)) t.s;
  for i = 0 to 2 do
    for j = 0 to 2 do
      Util.Mat.set t.q i j (float_of_int ((i * 3) + j) /. 8.0)
    done
  done;
  t

let test_covariance_located () =
  Alcotest.check verdict "equal" (Ok ()) (Oracle.covariance (triple ()) (triple ()));
  check_diff "dimension" "dim 3 vs 2" (Oracle.covariance (triple ()) (Cov.zero 2));
  let a = triple () in
  a.c <- -4.0;
  check_diff "c" "c: -0x1p+2 vs 0x1p+2" (Oracle.covariance a (triple ()));
  let a = triple () in
  a.s.(1) <- 2.5;
  check_diff "s[1]" "s[1]: 0x1.4p+1 vs 0x1p+1" (Oracle.covariance a (triple ()));
  let a = triple () in
  Util.Mat.set a.q 1 2 0.75;
  check_diff "q[1][2]" "q[1][2]: 0x1.8p-1 vs 0x1.4p-1" (Oracle.covariance a (triple ()));
  (* the FIRST difference wins: s before q, and a signed zero counts *)
  let a = Cov.zero 3 and b = Cov.zero 3 in
  Util.Mat.set a.q 0 0 1.0;
  a.s.(2) <- -0.0;
  check_diff "first coordinate" "s[2]: -0x0p+0 vs 0x0p+0" (Oracle.covariance a b)

(* ---- keyed results ---- *)

let row key v = (List.map (fun (a, n) -> (a, Value.Int n)) key, v)
let x = ("x", [ row [] 1.0 ])
let y = ("y", [ row [ ("g", 1) ] 0.5; row [ ("g", 2) ] 0.25 ])

let test_keyed_ids () =
  Alcotest.check verdict "same" (Ok ()) (Oracle.keyed [ x; y ] [ x; y ]);
  check_diff "extra id" "extra id \"y\"" (Oracle.keyed [ x; y ] [ x ]);
  check_diff "missing id" "missing id \"y\"" (Oracle.keyed [ x ] [ x; y ]);
  check_diff "missing id mid-list" "missing id \"y\"" (Oracle.keyed [ x ] [ y; x ])

let test_strict_vs_canonical () =
  check_diff "strict rejects permuted ids"
    "id \"y\" where the reference has \"x\" (order differs)"
    (Oracle.keyed [ y; x ] [ x; y ]);
  Alcotest.check verdict "canonical accepts permuted ids" (Ok ())
    Oracle.(keyed (canonical [ y; x ]) (canonical [ x; y ]));
  let y' = ("y", List.rev (snd y)) in
  check_diff "strict rejects permuted rows" "id \"y\" row 0: key {g=2} vs {g=1}"
    (Oracle.keyed [ y' ] [ y ]);
  Alcotest.check verdict "canonical accepts permuted rows" (Ok ())
    Oracle.(keyed (canonical [ y' ]) (canonical [ y ]))

let test_keyed_rows () =
  check_diff "value" "id \"x\" {}: -0x0p+0 vs 0x0p+0"
    (Oracle.keyed [ ("x", [ row [] (-0.0) ]) ] [ ("x", [ row [] 0.0 ]) ]);
  check_diff "grouped value" "id \"y\" {g=2}: 0x1p-1 vs 0x1p-2"
    (Oracle.keyed [ ("y", [ row [ ("g", 1) ] 0.5; row [ ("g", 2) ] 0.5 ]) ] [ y ]);
  check_diff "key" "id \"y\" row 1: key {g=3} vs {g=2}"
    (Oracle.keyed [ ("y", [ row [ ("g", 1) ] 0.5; row [ ("g", 3) ] 0.25 ]) ] [ y ]);
  check_diff "float key by bits" "id \"z\" row 0: key {f=-0x0p+0} vs {f=0x0p+0}"
    (Oracle.keyed [ ("z", [ ([ ("f", flt (-0.0)) ], 1.0) ]) ]
       [ ("z", [ ([ ("f", flt 0.0) ], 1.0) ]) ]);
  check_diff "extra row" "id \"y\": extra row {g=3}"
    (Oracle.keyed [ ("y", snd y @ [ row [ ("g", 3) ] 1.0 ]) ] [ y ]);
  check_diff "missing row" "id \"y\": missing row {g=2}"
    (Oracle.keyed [ ("y", [ List.hd (snd y) ]) ] [ y ])

(* ---- relations and tuples ---- *)

let relation rows =
  Relation.of_list "R"
    (Schema.make [ ("k", Value.TInt); ("m", Value.TFloat) ])
    (List.mapi (fun i m -> [| Value.Int i; flt m |]) rows)

let test_relation_located () =
  Alcotest.check verdict "equal, NaN included" (Ok ())
    (Oracle.relation (relation [ 1.0; Float.nan ]) (relation [ 1.0; Float.nan ]));
  check_diff "row and column" "row 2, column m: 0x1.8p+0 vs 0x1p+0"
    (Oracle.relation (relation [ 0.0; 1.0; 1.5 ]) (relation [ 0.0; 1.0; 1.0 ]));
  check_diff "cardinality" "rows 2 vs 3"
    (Oracle.relation (relation [ 0.0; 1.0 ]) (relation [ 0.0; 1.0; 1.0 ]));
  let other =
    Relation.of_list "R" (Schema.make [ ("k", Value.TInt); ("u", Value.TFloat) ]) []
  in
  check_diff "attributes" "attributes [k; m] vs [k; u]"
    (Oracle.relation (relation []) other);
  check_diff "tuple column" "column 1: -0x0p+0 vs 0x0p+0"
    (Oracle.tuple [| Value.Int 0; flt (-0.0) |] [| Value.Int 0; flt 0.0 |]);
  check_diff "tuple arity" "arity 1 vs 2"
    (Oracle.tuple [| Value.Int 0 |] [| Value.Int 0; flt 0.0 |])

(* ---- packed model parameters ---- *)

let packed weights =
  let features =
    Aggregates.Feature.make ~response:"y" ~continuous:[ "u"; "v" ] ~categorical:[] ()
  in
  let model =
    {
      Ml.Linreg.feature_columns = [| "intercept"; "u"; "v" |];
      weights;
      features;
      iterations_run = 1;
    }
  in
  Ml.Model_intf.Packed ((module Ml.Linreg.Model), model)

let encoded p =
  let b = Buffer.create 64 in
  Ml.Model_intf.encode_packed b p;
  Buffer.contents b

let test_packed_located () =
  Alcotest.check verdict "same parameters" (Ok ())
    (Oracle.packed (packed [| 1.0; 0.0; 2.0 |]) (packed [| 1.0; 0.0; 2.0 |]));
  let a = packed [| 1.0; -0.0; 2.0 |] and b = packed [| 1.0; 0.0; 2.0 |] in
  match Oracle.packed a b with
  | Ok () -> Alcotest.fail "-0.0 and 0.0 weights encode the same"
  | Error diff ->
      let ea = encoded a and eb = encoded b in
      let offset = Scanf.sscanf diff "linreg-cg byte %d: " Fun.id in
      Alcotest.(check bool) "bytes agree before the offset" true
        (String.sub ea 0 offset = String.sub eb 0 offset);
      Alcotest.(check bool) "and differ at it" true (ea.[offset] <> eb.[offset]);
      Alcotest.(check string) "both bytes shown"
        (Printf.sprintf "linreg-cg byte %d: 0x%02x vs 0x%02x" offset
           (Char.code ea.[offset]) (Char.code eb.[offset]))
        diff

(* ---- a forced divergence in a scenario check ---- *)

let test_scenario_detail () =
  let a = triple () in
  Util.Mat.set a.q 0 1 0.0;
  let c =
    Scenario.differential ~layer:"maintain" "forced"
      [
        ("maintained", "recompute", Oracle.covariance a (triple ()));
        ("maintained", "f-ivm", Oracle.covariance a a);
      ]
  in
  Alcotest.(check bool) "fails" false c.Scenario.ok;
  Alcotest.(check string) "detail names the coordinate"
    "forced: maintained <> recompute at q[0][1]: 0x0p+0 vs 0x1p-3, maintained == f-ivm"
    c.Scenario.detail;
  let vetoed = Scenario.differential ~ok:false ~layer:"maintain" "extra" [] in
  Alcotest.(check bool) "[ok] is honoured" false vetoed.Scenario.ok

let () =
  Alcotest.run "oracle"
    [
      ( "floats",
        [
          Alcotest.test_case "signed zeros differ" `Quick test_signed_zero;
          Alcotest.test_case "NaN payloads" `Quick test_nan_payloads;
          Alcotest.test_case "value constructors" `Quick test_value_types;
        ] );
      ( "located",
        [
          Alcotest.test_case "covariance c, s[i], q[i][j]" `Quick test_covariance_located;
          Alcotest.test_case "keyed ids" `Quick test_keyed_ids;
          Alcotest.test_case "keyed rows, keys and values" `Quick test_keyed_rows;
          Alcotest.test_case "relation row and column" `Quick test_relation_located;
          Alcotest.test_case "packed byte offset" `Quick test_packed_located;
          Alcotest.test_case "scenario check detail" `Quick test_scenario_detail;
        ] );
      ("order", [ Alcotest.test_case "strict vs canonical" `Quick test_strict_vs_canonical ]);
    ]
