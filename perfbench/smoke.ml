(* Smoke test of the benchmark: tiny-scale runs of every workload, untraced
   and traced, must print every metric with its unit and pass every
   correctness gate; a serve run with one flipped bit in a served result
   must report the failure. Usage: smoke.exe MAIN_EXE BENCHMARK_JSON *)

module Json = Obs.Json

let main_exe = Sys.argv.(1)
let contract = Json.parse_exn (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let member k j =
  match Json.member k j with Some v -> v | None -> fail "missing key %s" k

let str = function Json.Str s -> s | _ -> fail "expected a string"
let num = function Json.Num x -> x | _ -> fail "expected a number"
let arr = function Json.Arr l -> l | _ -> fail "expected an array"

(* The report line and the result line of one run; [quiet] drops the
   run's stderr, where an expected gate failure is logged. *)
let run ?(quiet = false) args =
  let argv = Array.of_list (main_exe :: "--scale-factor" :: "0.05" :: "--seconds" :: "0.2" :: args) in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = if quiet then Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 else Unix.stderr in
  let pid = Unix.create_process main_exe argv Unix.stdin out_w err in
  Unix.close out_w;
  if quiet then Unix.close err;
  let lines =
    In_channel.input_all (Unix.in_channel_of_descr out_r)
    |> String.trim |> String.split_on_char '\n'
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "%s exited abnormally" (String.concat " " args));
  match List.rev lines with
  | result :: report :: _ -> (Json.parse_exn report, Json.parse_exn result)
  | _ -> fail "%s printed fewer than two lines" (String.concat " " args)

(* Every expected metric is present with its unit. *)
let check_metrics what metrics expected =
  List.iter
    (fun (name, unit_) ->
      match Json.member name metrics with
      | None -> fail "%s: metric %s missing" what name
      | Some m ->
          if str (member "unit" m) <> unit_ then fail "%s: %s has unit %s" what name (str (member "unit" m));
          if not (Float.is_finite (num (member "value" m))) then fail "%s: %s not finite" what name)
    expected

let contract_list key =
  List.map (fun e -> (str (member "name" e), str (member "unit" e))) (arr (member key contract))

(* The workload's own metrics, by the names NOTES.md uses. *)
let own =
  [
    ( "train",
      [ ("setup_s", "s"); ("linreg_retailer_s", "s"); ("linreg_favorita_s", "s"); ("tree_retailer_s", "s") ],
      [
        ("lmfao.cov_eval_s", "s"); ("lmfao.cov_eval_favorita_s", "s"); ("compile.plan_s", "s");
        ("compile.run_s", "s"); ("compile.run_favorita_s", "s"); ("compile.run_words", "words");
        ("ml.stats_s", "s"); ("ml.solve_s", "s"); ("lmfao.node_eval_s", "s");
        ("compile.node_run_s", "s"); ("ml.tree_nodes", "count"); ("datagen.generate_s", "s");
        ("trace_overhead_frac", "ratio");
      ] );
    ( "stream",
      [
        ("setup_s", "s"); ("insert_updates_per_s", "1/s"); ("churn_updates_per_s", "1/s");
        ("batch_p50_s", "s"); ("batch_p99_s", "s");
      ],
      [
        ("fivm.insert_batch_s", "s"); ("fivm.insert_words_per_update", "words");
        ("fivm.churn_batch_s", "s"); ("fivm.churn_words_per_update", "words");
        ("fivm.view_rows", "count"); ("ml.refresh_s", "s"); ("datagen.generate_s", "s");
        ("trace_overhead_frac", "ratio");
      ] );
    ( "serve",
      [
        ("setup_s", "s"); ("read_p50_s", "s"); ("read_p99_s", "s"); ("write_p50_s", "s");
        ("write_p95_s", "s"); ("ops_per_s", "1/s");
      ],
      [
        ("serve.hit_s", "s"); ("serve.hit_ratio", "ratio"); ("serve.miss_s", "s");
        ("serve.snapshot_s", "s"); ("compile.plans", "count"); ("serve.apply_s", "s");
        ("serve.refreshes", "count"); ("serve.invalidations", "count"); ("serve.predict_s", "s");
        ("datagen.generate_s", "s"); ("trace_overhead_frac", "ratio");
      ] );
  ]

let () =
  List.iter
    (fun (w, e2e, layers) ->
      List.iter
        (fun (trace, expected, key) ->
          let what = Printf.sprintf "%s --trace %s" w trace in
          let report, result = run [ "--workload"; w; "--seed"; "3"; "--trace"; trace ] in
          check_metrics what (member "metrics" report) expected;
          check_metrics what (member "metrics" result) (contract_list key);
          if num (member "value" (member "failed_ops_frac" report)) <> 0.0 then
            fail "%s: failed_ops_frac is not 0" what;
          if member "correct" result <> Json.Bool true then fail "%s: not correct" what)
        [ ("0", e2e, "end_to_end"); ("1", layers, "per_layer") ])
    own;
  let report, result =
    run ~quiet:true [ "--workload"; "serve"; "--seed"; "3"; "--trace"; "0"; "--flip-bit" ]
  in
  if num (member "value" (member "failed_ops_frac" report)) <= 0.0 then
    fail "a flipped bit in a served result did not show in failed_ops_frac";
  if member "correct" result <> Json.Bool false then fail "a flipped bit left the run correct";
  print_endline "perfbench smoke: ok"
