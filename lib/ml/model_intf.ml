(* The common shape of a moment-backed model trainer (linear, polynomial,
   Huber, factorisation machine): a name for selection, model-specific
   options with a default, and one entry point training from a [moments]
   bundle — mirroring [Aggregates.Engine_intf.S] so the CLI, the bench
   harness and the serving layer hold models as first-class modules instead
   of per-model match arms.

   The bundle carries the three sufficient-statistic flavours the models
   need, each lazy so a consumer pays only for what its [needs] declares:

   - [covariance]: the one-hot moment matrix (degree-2), which F-IVM keeps
     fresh as a maintained triple — refreshing a covariance-backed model
     after a delta batch reads the triple in O(d^2), independent of data
     size (the paper's Section 1.5 claim);
   - [monomial]: the degree-2 BASIS moment matrix (degree-4 aggregates) for
     polynomial regression and factorisation machines;
   - [rows]: an explicit (one-hot) data matrix, for models whose gradient
     needs per-step inequality aggregates (Huber) — honest about not being
     expressible as static moments.

   [refresh] warm-starts from the previous model (Section 1.5: "we resume
   ... with parameter values that are close to the final ones"); the
   [ml.refresh.*] counters and the [ml.refresh] span make refresh traffic
   observable. *)

open Relational
module Feature = Aggregates.Feature
module Batch = Aggregates.Batch
open Util

type rows = {
  row_columns : string array; (* column 0 is the intercept *)
  x : float array array;
  y : float array;
}

(* Where the bundle's statistics come from: a database pass, the maintained
   covariance triple (with an optional snapshot thunk for the flavours the
   triple cannot provide), or explicit rows. *)
type origin = From_database | From_triple | From_rows

type moments = {
  features : Feature.t;
  origin : origin;
  covariance : Moment.t Lazy.t;
  monomial : Moment.t Lazy.t;
  rows : rows Lazy.t;
}

let response_exn (f : Feature.t) =
  match f.response with
  | Some r -> r
  | None -> invalid_arg "Model_intf: the feature map has no response"

(* rows -> one-hot covariance moments, the structure-agnostic fallback *)
let covariance_of_rows (r : rows) ~(response : string) : Moment.t =
  let has_icpt =
    Array.length r.row_columns > 0 && r.row_columns.(0) = "intercept"
  in
  let columns =
    if has_icpt then Array.append r.row_columns [| response |]
    else Array.concat [ [| "intercept" |]; r.row_columns; [| response |] ]
  in
  let width = Array.length columns in
  let index = Hashtbl.create width in
  Array.iteri (fun i c -> Hashtbl.replace index c i) columns;
  let matrix = Mat.create width width in
  Array.iteri
    (fun i row ->
      let full =
        if has_icpt then Array.append row [| r.y.(i) |]
        else Array.concat [ [| 1.0 |]; row; [| r.y.(i) |] ]
      in
      Mat.ger ~alpha:1.0 full full matrix)
    r.x;
  {
    Moment.columns;
    index;
    matrix;
    count = float_of_int (Array.length r.x);
    response_col = Some (width - 1);
  }

let rows_of_database (db : Database.t) (f : Feature.t) : rows =
  let join = Database.materialise_join db in
  let m = Baseline.One_hot.encode join f in
  { row_columns = m.Baseline.One_hot.columns; x = m.Baseline.One_hot.x; y = m.Baseline.One_hot.y }

let moments_of_database (db : Database.t) (f : Feature.t) : moments =
  let response = response_exn f in
  let covariance =
    lazy (Moment.of_batch f (Compile.Engine.lookup db (Batch.covariance f)))
  in
  let monomial =
    lazy (fst (Monomial.moment_of_database db ~features:f.continuous ~response))
  in
  let rows = lazy (rows_of_database db f) in
  { features = f; origin = From_database; covariance; monomial; rows }

let moments_of_covariance ?snapshot (cov : Rings.Covariance.t)
    ~(features : string list) ~(response : string) : moments =
  let continuous = List.filter (fun x -> x <> response) features in
  let f = Feature.make ~response ~continuous ~categorical:[] () in
  let covariance =
    lazy (Moment.of_covariance cov ~features ~response:(Some response))
  in
  let need_snapshot what =
    match snapshot with
    | Some s -> s ()
    | None ->
        invalid_arg
          (Printf.sprintf
             "Model_intf: %s statistics need a snapshot (the covariance \
              triple only carries degree-2 moments)"
             what)
  in
  let monomial =
    lazy
      (fst
         (Monomial.moment_of_database (need_snapshot "monomial")
            ~features:continuous ~response))
  in
  let rows = lazy (rows_of_database (need_snapshot "row") f) in
  { features = f; origin = From_triple; covariance; monomial; rows }

let moments_of_rows ?(columns : string array option) ~(response : string)
    (x : float array array) (y : float array) : moments =
  let columns =
    match columns with
    | Some c -> c
    | None ->
        let n = if Array.length x = 0 then 0 else Array.length x.(0) in
        Array.init n (Printf.sprintf "x%d")
  in
  let continuous =
    List.filter (fun c -> c <> "intercept" && c <> response)
      (Array.to_list columns)
  in
  let f = Feature.make ~response ~continuous ~categorical:[] () in
  let rows = lazy { row_columns = columns; x; y } in
  let covariance =
    lazy (covariance_of_rows (Lazy.force rows) ~response)
  in
  let monomial =
    lazy
      (Monomial.moment_of_rows ~columns ~features:continuous ~response x y)
  in
  { features = f; origin = From_rows; covariance; monomial; rows }

(* ---------- the model signature ---------- *)

module type S = sig
  val name : string
  (** Short selector used by [borg learn --model] and the bench harness. *)

  val description : string
  (** One-line description for listings. *)

  type options

  val default_options : options

  type model

  val needs : [ `Covariance | `Monomial | `Rows ]
  (** Which statistic flavour {!train_from_moments} forces. Only
      [`Covariance] models refresh straight from a maintained triple; the
      others recompute their statistics from a snapshot. *)

  val train_from_moments : ?options:options -> ?warm_start:model -> moments -> model
  (** Train from the bundle; [warm_start] resumes iterative optimisers from
      a previous model's parameters. *)

  val refresh : ?options:options -> previous:model -> moments -> model
  (** [train_from_moments ~warm_start:previous] — the online-maintenance
      step after a delta batch. *)

  val predict : model -> (string -> Value.t) -> float
  (** Predict for a raw (non-encoded) row given by attribute lookup. *)

  val encode : Buffer.t -> model -> unit
  (** Binary codec; floats are stored by bit pattern, so two models encode
      equal iff their parameters are bit-identical. *)

  val decode : Codec.reader -> model
  (** @raise Relational.Codec.Decode_error on malformed input. *)
end

type t = (module S)

let name (module M : S) = M.name
let description (module M : S) = M.description
let find models n = List.find_opt (fun m -> name m = n) models

(* A model paired with the module that trained it: what a registry stores
   when different entries hold different model types. *)
type packed = Packed : (module S with type model = 'm) * 'm -> packed

(* Observability ([ml.refresh.*]): volume of online refreshes, how many were
   served purely from the maintained triple (no snapshot, no data pass), and
   the refresh span itself. *)
let c_refresh_total = Obs.counter "ml.refresh.total"
let c_refresh_triple = Obs.counter "ml.refresh.from_triple"

let train_packed (module M : S) (m : moments) : packed =
  Packed ((module M), M.train_from_moments m)

let refresh_packed (Packed ((module M), prev) : packed) (m : moments) : packed =
  Obs.with_span "ml.refresh" @@ fun () ->
  Obs.incr c_refresh_total;
  (match (m.origin, M.needs) with
  | From_triple, `Covariance -> Obs.incr c_refresh_triple
  | _ -> ());
  Packed ((module M), M.refresh ~previous:prev m)

let predict_packed (Packed ((module M), m) : packed) get = M.predict m get

let encode_packed buf (Packed ((module M), m) : packed) =
  Codec.str buf M.name;
  M.encode buf m

let packed_name (Packed ((module M), _) : packed) = M.name

(* ---------- timed end-to-end fits (the Figure 3 rows) ---------- *)

type 'm timed = {
  model : 'm;
  stats_seconds : float; (* computing the sufficient statistics *)
  solve_seconds : float; (* the in-moment-space optimisation *)
  aggregate_count : int; (* batch size, 0 for row-based statistics *)
}

let timed_fit (type m o) ?options
    (module M : S with type model = m and type options = o) (db : Database.t)
    (f : Feature.t) : m timed =
  let moments = moments_of_database db f in
  let force () =
    match M.needs with
    | `Covariance -> ignore (Lazy.force moments.covariance)
    | `Monomial -> ignore (Lazy.force moments.monomial)
    | `Rows -> ignore (Lazy.force moments.rows)
  in
  let (), stats_seconds = Timing.time force in
  let model, solve_seconds =
    Timing.time (fun () -> M.train_from_moments ?options moments)
  in
  let aggregate_count =
    match M.needs with
    | `Covariance -> Batch.size (Batch.covariance f)
    | `Monomial ->
        Batch.size
          (fst (Monomial.batch_for f.continuous ~response:(response_exn f)))
    | `Rows -> 0
  in
  { model; stats_seconds; solve_seconds; aggregate_count }
