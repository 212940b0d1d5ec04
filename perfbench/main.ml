(* The repository benchmark: three closed-loop workloads (train, stream,
   serve) driven from one process with one client. Every library call goes
   through the public interfaces of Datagen, Lmfao, Compile, Ml, Fivm and
   Serve; the only spans added are the benchmark's own, around those calls.
   NOTES.md says why each workload exists and what each metric should move.

   The last stdout line is the result object of BENCHMARK.json's contract;
   the line before it is a fuller report (every workload metric by its own
   name with a unit, the seed, the scales, the domain count and the OCaml
   version). *)

open Relational
module Json = Obs.Json

let now = Util.Timing.now

(* ------------------------------------------------------------- samples *)

(* Samples are keyed by metric name; while a traced pass runs they go under
   "traced/<name>" so the untraced end-to-end numbers never mix with them. *)
let tracing = ref false
let samples : (string, float list) Hashtbl.t = Hashtbl.create 32
let key name = if !tracing then "traced/" ^ name else name

let record name v =
  let k = key name in
  Hashtbl.replace samples k
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples k))

let get k = Option.value ~default:[] (Hashtbl.find_opt samples k)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let sum l = List.fold_left ( +. ) 0.0 l

(* --------------------------------------------------------- calibration *)

(* A shared host's speed can drift by half over tens of seconds, which no
   amount of in-run repetition averages away. Every time is therefore
   scaled by [speed]: the ratio of [nominal] to the current median time of
   a fixed unit of CPU work that calls nothing in the repository (a grouped
   scan, random reads, hashing, allocation and a sort). A change to the
   program does not move the calibration, so scaled times compare across
   runs and commits; the report line gives the median calibration time so
   raw times can be recovered. *)
let calibration_data =
  let st = ref 12345 in
  Array.init (1 lsl 20) (fun _ ->
      st := ((!st * 1103515245) + 12345) land 0x3fffffff;
      !st)

let calibration_work () =
  let d = calibration_data in
  let n = Array.length d in
  (* a streaming scan and a grouped sum, as in an aggregate scan *)
  let groups = Array.make 4096 0.0 in
  for i = 0 to n - 1 do
    let x = d.(i) in
    groups.(x land 4095) <- groups.(x land 4095) +. float (x lsr 12)
  done;
  (* dependent random reads across the 8 MB array, as in index probes *)
  let j = ref 0 in
  for _ = 1 to 50_000 do
    j := d.(!j land (n - 1)) lxor !j
  done;
  (* hashing and short-lived allocation *)
  let h = Hashtbl.create 1024 in
  for i = 0 to 5_000 do
    let k = d.(i) land 1023 in
    Hashtbl.replace h k (float i :: Option.value ~default:[] (Hashtbl.find_opt h k))
  done;
  let a = Array.init 3_000 (fun i -> float d.(i * 7)) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (groups, !j, Hashtbl.length h, a))

let nominal = 0.005
let speed = ref 1.0
let last_calibration = ref neg_infinity
let calibrations = ref []

let calibrate () =
  let times =
    List.init 5 (fun _ ->
        let t0 = now () in
        calibration_work ();
        now () -. t0)
  in
  let c = List.nth (List.sort compare times) 2 in
  calibrations := c :: !calibrations;
  speed := nominal /. c;
  last_calibration := now ()

(* Recalibrate at most every half second, always between timed regions. *)
let maybe_calibrate () = if now () -. !last_calibration > 0.5 then calibrate ()

(* ------------------------------------------------------------ failures *)

let attempted = ref 0
let failed = ref 0

(* One closed-loop step: its latency is recorded under each of [names]; an
   exception counts as a failed operation. *)
let op names f =
  maybe_calibrate ();
  incr attempted;
  let t0 = now () in
  match f () with
  | r ->
      let raw = now () -. t0 in
      (* a long step is bracketed: scaled by the mean of the factors
         measured before and after it *)
      let k =
        if raw < 0.2 then !speed
        else begin
          let before = !speed in
          calibrate ();
          (before +. !speed) /. 2.0
        end
      in
      let dt = raw *. k in
      List.iter (fun n -> record n dt) names;
      Some r
  | exception e ->
      incr failed;
      Printf.eprintf "operation %s failed: %s\n%!" (List.hd names)
        (Printexc.to_string e);
      None

(* A correctness gate, evaluated outside every timed region. *)
let gate what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "correctness gate failed: %s\n%!" what
  end

(* ----------------------------------------------------- bit-exact images *)

let float_bits b x = Buffer.add_string b (Int64.to_string (Int64.bits_of_float x))

let value_bits b = function
  | Value.Float x -> Buffer.add_char b 'f'; float_bits b x
  | v -> Buffer.add_char b 'v'; Buffer.add_string b (Value.to_string v)

(* A batch result as a string equal for two results iff they hold the same
   groups with bit-identical values. Engines may emit aggregates and groups
   in different orders, so both are sorted first. *)
let result_image (r : (string * Aggregates.Spec.result) list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (id, rows) ->
      Buffer.add_string b id;
      List.iter
        (fun (keys, v) ->
          Buffer.add_char b '|';
          List.iter
            (fun (a, x) -> Buffer.add_string b a; Buffer.add_char b '='; value_bits b x)
            keys;
          Buffer.add_char b ':';
          float_bits b v)
        (List.sort compare rows);
      Buffer.add_char b '\n')
    (List.sort (fun (a, _) (b, _) -> compare a b) r);
  Buffer.contents b

let packed_image p =
  let b = Buffer.create 256 in
  Ml.Model_intf.encode_packed b p;
  Buffer.contents b

let cov_image c =
  let b = Buffer.create 1024 in
  Rings.Covariance.encode b c;
  Buffer.contents b

let rec tree_image b = function
  | Ml.Decision_tree.Leaf { prediction; count } ->
      Buffer.add_char b 'L'; float_bits b prediction; float_bits b count
  | Ml.Decision_tree.Node { split; left; right; count } ->
      (match split with
      | Ml.Decision_tree.Threshold (a, t) ->
          Buffer.add_string b ("T" ^ a); float_bits b t
      | Ml.Decision_tree.Category (a, v) ->
          Buffer.add_string b ("C" ^ a); value_bits b v);
      float_bits b count;
      tree_image b left;
      tree_image b right

let linreg_image (m : Ml.Linreg.model) =
  let b = Buffer.create 256 in
  Ml.Linreg.encode b m;
  Buffer.contents b

(* --------------------------------------------------------------- spans *)

(* Names of the benchmark's own spans. Library spans nest inside them and
   are transparent here: a benchmark span's self time is its duration minus
   that of the nearest benchmark spans below it. *)
let bench_spans : (string, unit) Hashtbl.t = Hashtbl.create 32

(* the calibration factor in force as each traced benchmark span started *)
let span_speeds = ref []

let span name f =
  Hashtbl.replace bench_spans name ();
  if !tracing then span_speeds := !speed :: !span_speeds;
  Obs.with_span name f

let is_bench s = Hashtbl.mem bench_spans (Obs.span_name s)

let rec nearest_bench s =
  List.concat_map
    (fun c -> if is_bench c then [ c ] else nearest_bench c)
    (Obs.span_children s)

(* Every benchmark span in start order with its scaled duration, scaled
   self seconds and self minor words. *)
let span_rollup () =
  let out = ref [] in
  let speeds = ref (List.rev !span_speeds) in
  let rec visit s =
    if is_bench s then begin
      let k = match !speeds with x :: tl -> speeds := tl; x | [] -> 1.0 in
      let kids = nearest_bench s in
      let self_s =
        Obs.span_seconds s -. sum (List.map Obs.span_seconds kids)
      in
      let self_w =
        Obs.span_minor_words s -. sum (List.map Obs.span_minor_words kids)
      in
      out := (Obs.span_name s, k *. Obs.span_seconds s, k *. self_s, self_w) :: !out
    end;
    List.iter visit (Obs.span_children s)
  in
  List.iter visit (Obs.spans ());
  List.rev !out

let layer_self name rollup =
  List.filter_map (fun (n, _, s, _) -> if n = name then Some s else None) rollup

let layer_words name rollup =
  List.filter_map (fun (n, _, _, w) -> if n = name then Some w else None) rollup

(* ------------------------------------------------------------ workloads *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type outcome = {
  scales : (string * float) list;
  e2e : metric list;  (** the workload's end-to-end metrics, untraced *)
  layers : metric list;  (** its per-layer metrics, from the traced half *)
  roles : (string * string) list;
      (** contract metric -> the workload metric it reports *)
  overhead_of : string;  (** the latency sample trace overhead is read on *)
}

(* Run [pass] until [seconds] of wall time have passed, at least once. A
   traced run spends the first half untraced (the overhead baseline) and
   the second half with Obs on. *)
let drive ~seconds ~traced pass =
  let loop budget =
    let t0 = now () in
    pass ();
    while now () -. t0 < budget do pass () done
  in
  if not traced then loop seconds
  else begin
    loop (seconds /. 2.0);
    Obs.reset ();
    Obs.set_enabled true;
    tracing := true;
    loop (seconds /. 2.0);
    tracing := false;
    Obs.set_enabled false
  end

let setup_runs = 5

(* Set up [setup_runs] times, timing each; keep the last state. *)
let timed_setup setup =
  let st = ref None in
  for _ = 1 to setup_runs do
    calibrate ();
    let t0 = now () in
    st := Some (setup ());
    record "setup_s" ((now () -. t0) *. !speed)
  done;
  Option.get !st

let generate name f =
  let t0 = now () in
  let db = f () in
  record ("datagen.generate_s/" ^ name) ((now () -. t0) *. !speed);
  db

let datagen_metric names =
  (* per set-up: the sum of the generators' medians *)
  m "datagen.generate_s" "s"
    (sum (List.map (fun n -> median (get ("datagen.generate_s/" ^ n))) names))

let counter name = float (Obs.counter_value_by_name name)

(* ---- train: Fig. 3 / Fig. 5 batch learning, all in lmfao/compile/ml *)

let train ~seed ~sf ~seconds ~traced =
  let s_ret = 0.25 *. sf and s_fav = 0.5 *. sf and s_tree = 0.05 *. sf in
  let rf = Datagen.Retailer.features and ff = Datagen.Favorita.features in
  let ret, fav, small =
    timed_setup (fun () ->
        let ret =
          generate "retailer" (fun () -> Datagen.Retailer.generate ~scale:s_ret ~seed ())
        in
        let fav =
          generate "favorita" (fun () ->
              Datagen.Favorita.generate ~scale:s_fav ~seed:(seed + 1) ())
        in
        let small =
          generate "retailer_small" (fun () ->
              Datagen.Retailer.generate ~scale:s_tree ~seed:(seed + 2) ())
        in
        (ret, fav, small))
  in
  let params = { Ml.Decision_tree.default_params with max_depth = 2 } in
  let cov_ret = Aggregates.Batch.covariance rf in
  let cov_fav = Aggregates.Batch.covariance ff in
  let node = Aggregates.Batch.decision_node ~db:small rf in
  let first = Hashtbl.create 3 in
  let same what image =
    match Hashtbl.find_opt first what with
    | None -> Hashtbl.replace first what image
    | Some i -> gate (what ^ " bit-identical to the first pass") (i = image)
  in
  let fit name db f =
    op [ name; "fit" ]
      (fun () ->
        span name (fun () -> Ml.Model_intf.timed_fit (module Ml.Linreg.Model) db f))
  in
  let traced_passes = ref 0 in
  let pass () =
    (* the linear fits are 20 times shorter than the tree, so a pass runs
       them five times each: on a noisy host their medians need the
       samples *)
    for _ = 1 to 5 do
      (match fit "linreg_retailer_s" ret rf with
      | Some r ->
          same "linreg retailer" (linreg_image r.model);
          record "ml.stats_s" (r.stats_seconds *. !speed);
          record "ml.solve_s" (r.solve_seconds *. !speed)
      | None -> ());
      match fit "linreg_favorita_s" fav ff with
      | Some r -> same "linreg favorita" (linreg_image r.model)
      | None -> ()
    done;
    (match
       op [ "tree_retailer_s"; "fit" ] (fun () ->
           span "tree_retailer_s" (fun () -> Ml.Decision_tree.train ~params small rf))
     with
    | Some t ->
        let b = Buffer.create 256 in
        tree_image b t;
        same "decision tree" (Buffer.contents b);
        record "ml.tree_nodes" (float (Ml.Decision_tree.size t))
    | None -> ());
    if !tracing then begin
      incr traced_passes;
      (* the layer calls behind the fits, each once, interpreted then
         compiled; compiled must equal interpreted bit for bit *)
      let both name_i name_p name_r db batch =
        let interp =
          op [ name_i ] (fun () -> span name_i (fun () -> Lmfao.Engine.eval_batch db batch))
        in
        let plan =
          op [ name_p ] (fun () -> span name_p (fun () -> Compile.Engine.compile db batch))
        in
        let comp =
          Option.bind plan (fun p ->
              op [ name_r ] (fun () -> span name_r (fun () -> Compile.Engine.run p db)))
        in
        match (interp, comp) with
        | Some i, Some c ->
            gate (name_r ^ " compiled = interpreted") (result_image i = result_image c)
        | _ -> ()
      in
      both "lmfao.cov_eval_s" "compile.plan_s" "compile.run_s" ret cov_ret;
      both "lmfao.cov_eval_favorita_s" "compile.plan_favorita_s"
        "compile.run_favorita_s" fav cov_fav;
      both "lmfao.node_eval_s" "compile.node_plan_s" "compile.node_run_s" small node
    end
  in
  drive ~seconds ~traced pass;
  let fits = get "fit" in
  let e2e =
    [
      m "linreg_retailer_s" "s" (median (get "linreg_retailer_s"));
      m "linreg_favorita_s" "s" (median (get "linreg_favorita_s"));
      m "tree_retailer_s" "s" (median (get "tree_retailer_s"));
      m "fits_per_s" "1/s" (float (List.length fits) /. sum fits);
    ]
  in
  let layers =
    if not traced then []
    else begin
      let r = span_rollup () in
      let t name = m name "s" (median (layer_self name r)) in
      let per_pass = float (max 1 !traced_passes) in
      [
        t "lmfao.cov_eval_s";
        t "lmfao.cov_eval_favorita_s";
        t "compile.plan_s";
        t "compile.run_s";
        t "compile.run_favorita_s";
        m "compile.run_words" "words" (median (layer_words "compile.run_s" r));
        m "ml.stats_s" "s" (median (get "traced/ml.stats_s"));
        m "ml.solve_s" "s" (median (get "traced/ml.solve_s"));
        t "lmfao.node_eval_s";
        t "compile.node_run_s";
        m "ml.tree_nodes" "count" (median (get "traced/ml.tree_nodes"));
        m "lmfao.tuples_scanned" "count" (counter "lmfao.tuples_scanned" /. per_pass);
        m "compile.plans" "count" (counter "lmfao.compile.plans" /. per_pass);
        datagen_metric [ "retailer"; "favorita"; "retailer_small" ];
      ]
    end
  in
  {
    scales = [ ("retailer", s_ret); ("favorita", s_fav); ("retailer_tree", s_tree) ];
    e2e;
    layers;
    roles =
      [
        ("p50_s", "linreg_retailer_s");
        ("tail_s", "tree_retailer_s");
        ("side_s", "linreg_favorita_s");
        ("ops_per_s", "fits_per_s");
        ("agg_s", "lmfao.cov_eval_s");
        ("model_s", "ml.solve_s");
      ];
    overhead_of = "linreg_retailer_s";
  }

(* ---- stream: Fig. 4 right / Sec. 1.5, all in fivm/rings plus the refresh *)

let batch_size = 32

let rec chunks n l =
  if l = [] then []
  else
    let rec take k acc = function
      | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take n [] l in
    c :: chunks n rest

let response = "inventoryunits"
let ivm_features = Datagen.Retailer.ivm_features

let stream ~seed ~sf ~seconds ~traced =
  let scale = 0.25 *. sf in
  let spec = Ml.Models.find_exn "linreg-closed" in
  let db =
    timed_setup (fun () ->
        generate "retailer" (fun () ->
            Datagen.Stream_gen.lattice_database
              (Datagen.Retailer.generate ~scale ~seed ())))
  in
  (* a batch holding any delete belongs to the churn phase *)
  let phase b =
    if List.exists (fun u -> u.Fivm.Delta.multiplicity < 0) b then `Churn else `Insert
  in
  let view_rows = ref 0 in
  let passes = ref 0 in
  let pass () =
    (* each pass draws its own stream order and churn victims, so a run's
       medians average over several of them *)
    incr passes;
    let updates =
      Datagen.Stream_gen.with_churn ~seed:((seed * 1000) + !passes) ~churn:0.25 db
    in
    let batches = List.map (fun b -> (phase b, b)) (chunks batch_size updates) in
    let mt = Fivm.Maintainer.create Fivm.Maintainer.F_ivm db ~features:ivm_features in
    let model = ref None in
    let before = List.length (get (key "batch_s")) in
    List.iter
      (fun (phase, b) ->
        let phase_name, layer =
          match phase with
          | `Insert -> ("insert", "fivm.insert_batch_s")
          | `Churn -> ("churn", "fivm.churn_batch_s")
        in
        ignore
          (op [ "batch_s"; phase_name ^ "_batch_s" ] (fun () ->
               span layer (fun () -> Fivm.Maintainer.apply_batch mt b);
               span "ml.refresh_s" (fun () ->
                   let mom =
                     Ml.Model_intf.moments_of_covariance
                       (Fivm.Maintainer.covariance mt) ~features:ivm_features ~response
                   in
                   model :=
                     Some
                       (match !model with
                       | None -> Ml.Model_intf.train_packed spec mom
                       | Some p -> Ml.Model_intf.refresh_packed p mom))));
        record (phase_name ^ "_updates") (float (List.length b)))
      batches;
    let recomputed = Fivm.Maintainer.recompute mt in
    gate "maintained covariance = recompute"
      (cov_image (Fivm.Maintainer.covariance mt) = cov_image recomputed);
    (match !model with
    | Some p ->
        let cold =
          Ml.Model_intf.train_packed spec
            (Ml.Model_intf.moments_of_covariance recomputed ~features:ivm_features
               ~response)
        in
        gate "refreshed linreg-closed = cold train" (packed_image p = packed_image cold)
    | None -> gate "model refreshed" false);
    view_rows := Fivm.Maintainer.view_rows mt;
    (* the tail is taken per pass, so one pass's unlucky churn victims do
       not set a run's p99 *)
    let all = get (key "batch_s") in
    let mine = List.filteri (fun i _ -> i < List.length all - before) all in
    record "pass_batch_p99_s" (percentile 0.99 mine)
  in
  drive ~seconds ~traced pass;
  let rate phase =
    sum (get (phase ^ "_updates")) /. sum (get (phase ^ "_batch_s"))
  in
  let e2e =
    [
      m "insert_updates_per_s" "1/s" (rate "insert");
      m "churn_updates_per_s" "1/s" (rate "churn");
      m "updates_per_s" "1/s"
        ((sum (get "insert_updates") +. sum (get "churn_updates")) /. sum (get "batch_s"));
      m "batch_p50_s" "s" (median (get "batch_s"));
      m "batch_p99_s" "s" (median (get "pass_batch_p99_s"));
      m "churn_batch_p50_s" "s" (median (get "churn_batch_s"));
    ]
  in
  let layers =
    if not traced then []
    else begin
      let r = span_rollup () in
      let per_update name phase =
        sum (layer_words name r) /. sum (get ("traced/" ^ phase ^ "_updates"))
      in
      [
        m "fivm.insert_batch_s" "s" (median (layer_self "fivm.insert_batch_s" r));
        m "fivm.insert_words_per_update" "words"
          (per_update "fivm.insert_batch_s" "insert");
        m "fivm.churn_batch_s" "s" (median (layer_self "fivm.churn_batch_s" r));
        m "fivm.churn_words_per_update" "words"
          (per_update "fivm.churn_batch_s" "churn");
        m "fivm.view_rows" "count" (float !view_rows);
        m "ml.refresh_s" "s" (median (layer_self "ml.refresh_s" r));
        datagen_metric [ "retailer" ];
      ]
    end
  in
  {
    scales = [ ("retailer", scale) ];
    e2e;
    layers;
    roles =
      [
        ("p50_s", "batch_p50_s");
        ("tail_s", "batch_p99_s");
        ("side_s", "churn_batch_p50_s");
        ("ops_per_s", "updates_per_s");
        ("agg_s", "fivm.insert_batch_s");
        ("model_s", "ml.refresh_s");
      ];
    overhead_of = "batch_s";
  }

(* ---- serve: reads beside writes, fivm in small rounds, compile on
   snapshots through Serve's plan cache *)

let ops_per_round = 2000
let write_size = 16

let flip_bit = ref false

(* Flip the lowest bit of a result's first value. *)
let corrupt = function
  | (id, (keys, v) :: rows) :: rest ->
      (id, (keys, Int64.float_of_bits (Int64.logxor (Int64.bits_of_float v) 1L)) :: rows)
      :: rest
  | r -> r

let serve ~seed ~sf ~seconds ~traced =
  let scale = 0.1 *. sf in
  let spec = Ml.Models.find_exn "linreg-closed" in
  let catalog =
    [|
      Aggregates.Batch.covariance_numeric ivm_features;
      Aggregates.Batch.mutual_information Datagen.Retailer.mi_attrs;
      Aggregates.Batch.kmeans Datagen.Retailer.features;
    |]
  in
  (* The server of the next round: fresh, with the first quarter of the
     insert stream preloaded and linreg-closed registered. *)
  let build db inserts =
    let srv = Serve.create Fivm.Maintainer.F_ivm db ~features:ivm_features in
    let preload = Array.length inserts / 4 in
    Serve.apply_deltas srv (Array.to_list (Array.sub inserts 0 preload));
    let name = Serve.Model.register ~max_staleness:0 srv spec ~response in
    (srv, name, preload)
  in
  let db, inserts, first =
    timed_setup (fun () ->
        let db =
          generate "retailer" (fun () ->
              Datagen.Stream_gen.lattice_database
                (Datagen.Retailer.generate ~scale ~seed ()))
        in
        let inserts = Array.of_list (Datagen.Stream_gen.inserts_of_database ~seed db) in
        (db, inserts, build db inserts))
  in
  let next_server = ref (Some first) in
  let round = ref 0 in
  let flipped = ref false in
  let hits = ref [] in
  let last_stats = ref None in
  (* plans compiled by the gate's reference evaluations, not by Serve *)
  let gate_plans = ref 0.0 in
  let pass () =
    let srv, mname, preload =
      match !next_server with
      | Some s -> next_server := None; s
      | None -> build db inserts
    in
    incr round;
    let rng = Util.Prng.create ((seed * 7919) + !round) in
    let cursor = ref preload in
    (* the reference answer of each catalog batch at the current epoch,
       computed on first use *)
    let refs = Hashtbl.create 3 in
    let snap = ref None in
    let reference i =
      match Hashtbl.find_opt refs i with
      | Some r -> r
      | None ->
          let s =
            match !snap with
            | Some s -> s
            | None ->
                let s = Serve.snapshot srv in
                snap := Some s;
                s
          in
          let plans = counter "lmfao.compile.plans" in
          let r = result_image (Compile.Engine.eval_batch s catalog.(i)) in
          gate_plans := !gate_plans +. counter "lmfao.compile.plans" -. plans;
          Hashtbl.replace refs i r;
          r
    in
    let writes_left () = (Array.length inserts - !cursor) / write_size in
    let n_ops = min ops_per_round (10 * writes_left ()) in
    for _ = 1 to n_ops do
      if Util.Prng.int rng 10 = 0 && writes_left () > 0 then begin
        let upd = Array.to_list (Array.sub inserts !cursor write_size) in
        cursor := !cursor + write_size;
        ignore
          (op [ "write_s"; "op" ] (fun () ->
               span "serve.apply_s" (fun () -> Serve.apply_deltas srv upd)));
        Hashtbl.reset refs;
        snap := None;
        if !tracing then
          ignore
            (op [ "serve.snapshot_s" ] (fun () ->
                 span "serve.snapshot_s" (fun () -> Serve.snapshot srv)))
      end
      else
        match Util.Prng.int rng 4 with
        | 3 ->
            let row = Hashtbl.create 16 in
            List.iter
              (fun a ->
                Hashtbl.replace row a
                  (Value.Float (float (1 + Util.Prng.int rng 64) /. 16.0)))
              ivm_features;
            let lookup a = Option.value ~default:Value.Null (Hashtbl.find_opt row a) in
            (match
               op [ "read_s"; "op" ] (fun () ->
                   span "serve.predict_s" (fun () -> Serve.Model.predict srv mname lookup))
             with
            | Some (y, epoch) ->
                gate "prediction finite at the current epoch"
                  (Float.is_finite y && epoch = Serve.epoch srv)
            | None -> ())
        | i -> (
            let before = (Serve.stats srv).hits in
            match
              op [ "read_s"; "op" ] (fun () ->
                  span "serve.read" (fun () -> Serve.serve srv catalog.(i)))
            with
            | Some r ->
                if !tracing then hits := ((Serve.stats srv).hits > before) :: !hits;
                let r =
                  if !flip_bit && (not !flipped) && Serve.epoch srv > 1 then begin
                    flipped := true;
                    corrupt r
                  end
                  else r
                in
                gate
                  (catalog.(i).Aggregates.Batch.name ^ " = Compile.Engine.eval_batch")
                  (result_image r = reference i)
            | None -> ())
    done;
    if !tracing then last_stats := Some (Serve.stats srv)
  in
  drive ~seconds ~traced pass;
  let reads = get "read_s" and writes = get "write_s" in
  let e2e =
    [
      m "read_p50_s" "s" (median reads);
      m "read_p99_s" "s" (percentile 0.99 reads);
      m "write_p50_s" "s" (median writes);
      m "write_p95_s" "s" (percentile 0.95 writes);
      m "ops_per_s" "1/s" (float (List.length (get "op")) /. sum (get "op"));
    ]
  in
  let layers =
    if not traced then []
    else begin
      let r = span_rollup () in
      let rec zip a b =
        match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []
      in
      let classified = zip (List.rev !hits) (layer_self "serve.read" r) in
      let split h = List.filter_map (fun (x, s) -> if x = h then Some s else None) classified in
      let st = Option.get !last_stats in
      let hit_ratio =
        let n = List.length classified in
        float (List.length (split true)) /. float (max 1 n)
      in
      [
        m "serve.hit_s" "s" (median (split true));
        m "serve.hit_ratio" "ratio" hit_ratio;
        m "serve.miss_s" "s" (median (split false));
        m "serve.snapshot_s" "s" (median (layer_self "serve.snapshot_s" r));
        m "compile.plans" "count" (counter "lmfao.compile.plans" -. !gate_plans);
        m "serve.apply_s" "s" (median (layer_self "serve.apply_s" r));
        m "serve.refreshes" "count" (float st.Serve.refreshes);
        m "serve.invalidations" "count" (float st.Serve.invalidations);
        m "serve.predict_s" "s" (median (layer_self "serve.predict_s" r));
        datagen_metric [ "retailer" ];
      ]
    end
  in
  {
    scales = [ ("retailer", scale) ];
    e2e;
    layers;
    roles =
      [
        ("p50_s", "read_p50_s");
        ("tail_s", "read_p99_s");
        ("side_s", "write_p50_s");
        ("ops_per_s", "ops_per_s");
        ("agg_s", "serve.miss_s");
        ("model_s", "serve.predict_s");
      ];
    overhead_of = "read_s";
  }

let workloads = [ ("train", train); ("stream", stream); ("serve", serve) ]

(* ------------------------------------------------------------- contract *)

(* BENCHMARK.json's metrics. End-to-end: the same names on every workload,
   each read from the workload metric its [roles] entry names. Per-layer:
   the role-mapped layer times, which every workload has, plus layer counts
   and ratios, which are 0 where a workload does not cross the layer. *)
let end_to_end = [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("p50_s", "s"); ("tail_s", "s"); ("side_s", "s") ]

let per_layer =
  [
    ("datagen.generate_s", "s");
    ("agg_s", "s");
    ("model_s", "s");
    ("compile.run_words", "words");
    ("compile.plans", "count");
    ("lmfao.tuples_scanned", "count");
    ("ml.tree_nodes", "count");
    ("fivm.insert_words_per_update", "words");
    ("fivm.churn_words_per_update", "words");
    ("fivm.view_rows", "count");
    ("serve.hit_ratio", "ratio");
    ("serve.refreshes", "count");
    ("serve.invalidations", "count");
    ("trace_overhead_frac", "ratio");
  ]

let metric_json l =
  Json.Obj
    (List.map
       (fun x -> (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]))
       l)

(* The traced run's spans, kept in memory until the run ends. *)
let write_trace workload =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "trace-%s.json" workload) in
  let spans =
    List.map
      (fun (n, total, self_s, self_w) ->
        Json.Obj
          [
            ("name", Json.Str n);
            ("seconds", Json.Num total);
            ("self_seconds", Json.Num self_s);
            ("self_minor_words", Json.Num self_w);
          ])
      (span_rollup ())
  in
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Obj [ ("spans", Json.Arr spans) ]));
  output_char oc '\n';
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let sf = ref 1.0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME train | stream | serve");
      ("--seed", Arg.Set_int seed, "N seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--scale-factor", Arg.Set_float sf, "F multiply every dataset scale (smoke test)");
      ("--flip-bit", Arg.Set flip_bit, " corrupt one served result (smoke test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let o = run ~seed:!seed ~sf:!sf ~seconds:!seconds ~traced in
  let setup = m "setup_s" "s" (median (get "setup_s")) in
  let failed_frac = float !failed /. float (max 1 !attempted) in
  let own = if traced then o.layers else setup :: o.e2e in
  let overhead =
    m "trace_overhead_frac" "ratio"
      (median (get ("traced/" ^ o.overhead_of)) /. median (get o.overhead_of) -. 1.0)
  in
  let own = if traced then own @ [ overhead ] else own in
  let find name =
    let name = Option.value ~default:name (List.assoc_opt name o.roles) in
    List.find_opt (fun x -> x.name = name) own
  in
  let contract =
    List.map
      (fun (name, unit_) ->
        match find name with
        | Some x ->
            assert (x.unit_ = unit_);
            m name unit_ x.value
        | None ->
            (* a layer count this workload does not cross *)
            assert (traced && unit_ <> "s");
            m name unit_ 0.0)
      (if traced then per_layer else end_to_end)
  in
  if traced then write_trace !workload;
  let finite = List.for_all (fun x -> Float.is_finite x.value) contract in
  if not finite then prerr_endline "a metric is not finite";
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str !workload);
            ("seed", Json.num_int !seed);
            ("seconds", Json.Num !seconds);
            ("trace", Json.Bool traced);
            ("scales", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) o.scales));
            ("domains", Json.num_int (Util.Pool.num_domains ()));
            ("ocaml", Json.Str Sys.ocaml_version);
            ( "calibration",
              Json.Obj
                [
                  ("nominal_s", Json.Num nominal);
                  ("median_s", Json.Num (median !calibrations));
                  ("count", Json.num_int (List.length !calibrations));
                ] );
            ("failed_ops_frac", Json.Obj [ ("value", Json.Num failed_frac); ("unit", Json.Str "ratio") ]);
            ("metrics", metric_json own);
          ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0 && finite));
            ("attempted", Json.num_int !attempted);
            ("failed", Json.num_int !failed);
            ("metrics", metric_json contract);
          ]))
