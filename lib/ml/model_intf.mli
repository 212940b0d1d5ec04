(** The common shape of a moment-backed model trainer (mirroring
    {!Aggregates.Engine_intf.S}): train from a lazy bundle of sufficient
    statistics, refresh with a warm start, predict by attribute lookup, and
    round-trip through a binary codec. The bundle lets the serving layer
    hand every model the SAME object after a delta batch — covariance-backed
    models read the maintained triple in O(d^2), the rest force a snapshot
    recompute — and the [ml.refresh.*] counters make the difference
    observable. *)

open Relational
module Feature := Aggregates.Feature

type rows = {
  row_columns : string array;  (** column 0 is the intercept *)
  x : float array array;
  y : float array;
}

type origin = From_database | From_triple | From_rows

type moments = {
  features : Feature.t;
  origin : origin;
  covariance : Moment.t Lazy.t;  (** one-hot degree-2 moment matrix *)
  monomial : Moment.t Lazy.t;  (** degree-2 basis (degree-4 aggregate) moments *)
  rows : rows Lazy.t;  (** explicit one-hot data matrix *)
}

val moments_of_database : Database.t -> Feature.t -> moments
(** Every flavour computed on demand over the database: covariance and
    monomial moments by compiled LMFAO batches ({!Compile.Engine}), rows
    by join materialisation. *)

val moments_of_covariance :
  ?snapshot:(unit -> Database.t) ->
  Rings.Covariance.t ->
  features:string list ->
  response:string ->
  moments
(** The online-maintenance bundle: covariance moments read straight from the
    maintained triple ([features] in the triple's index order, [response]
    among them). Monomial and row statistics force [snapshot] — the triple
    only carries degree-2 moments — and raise [Invalid_argument] when no
    snapshot is provided. *)

val moments_of_rows :
  ?columns:string array ->
  response:string ->
  float array array ->
  float array ->
  moments
(** Explicit rows ([columns] defaults to [x0..xn-1]; a leading "intercept"
    column is recognised and not duplicated in the covariance moments). *)

(** The model signature: a name for selection, model-specific options, and
    one trainer over the bundle. *)
module type S = sig
  val name : string
  (** Short selector used by [borg learn --model] and the bench harness. *)

  val description : string

  type options

  val default_options : options

  type model

  val needs : [ `Covariance | `Monomial | `Rows ]
  (** Which statistic flavour {!train_from_moments} forces. Only
      [`Covariance] models refresh straight from a maintained triple. *)

  val train_from_moments :
    ?options:options -> ?warm_start:model -> moments -> model
  (** [warm_start] resumes iterative optimisers from a previous model's
      parameters — the Section 1.5 trick that keeps a maintained model's
      refresh below from-scratch retraining. *)

  val refresh : ?options:options -> previous:model -> moments -> model
  (** [train_from_moments ~warm_start:previous] — the online-maintenance
      step after a delta batch. *)

  val predict : model -> (string -> Value.t) -> float

  val encode : Buffer.t -> model -> unit
  (** Floats are stored by bit pattern: two models encode equal iff their
      parameters are bit-identical. *)

  val decode : Codec.reader -> model
  (** @raise Relational.Codec.Decode_error on malformed input. *)
end

type t = (module S)

val name : t -> string
val description : t -> string
val find : t list -> string -> t option

type packed = Packed : (module S with type model = 'm) * 'm -> packed
(** A model paired with the module that trained it — what a registry stores
    when different entries hold different model types. *)

val train_packed : t -> moments -> packed
(** Train with default options. *)

val refresh_packed : packed -> moments -> packed
(** Warm-started refresh inside an [ml.refresh] span; bumps
    [ml.refresh.total] and, when a [`Covariance] model consumed a
    triple-backed bundle, [ml.refresh.from_triple]. *)

val predict_packed : packed -> (string -> Value.t) -> float

val encode_packed : Buffer.t -> packed -> unit
(** The model's name followed by its payload (decode via a registry, e.g.
    [Models.decode_packed]). *)

val packed_name : packed -> string

type 'm timed = {
  model : 'm;
  stats_seconds : float;  (** computing the sufficient statistics *)
  solve_seconds : float;  (** the in-moment-space optimisation *)
  aggregate_count : int;  (** batch size; 0 for row-based statistics *)
}

val timed_fit :
  ?options:'o ->
  (module S with type model = 'm and type options = 'o) ->
  Database.t ->
  Feature.t ->
  'm timed
(** End-to-end structure-aware training over a database with the
    statistics/optimisation split timed (the Figure 3 rows). *)
