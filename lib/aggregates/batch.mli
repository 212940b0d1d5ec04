(** Batch synthesis: from a learning task to its aggregate batch (Section 2).
    The batch sizes these produce are the Figure 5 quantities. *)

open Relational

type t = { name : string; aggregates : Spec.t list }

val size : t -> int

val covariance : Feature.t -> t
(** Section 2.1: COUNT, SUM(Xi), SUM(Xi*Xj) over numeric features, plus the
    group-by counts/sums encoding all categorical interactions sparsely. *)

val thresholds_for : Database.t -> string -> int -> float list
(** Equi-width threshold candidates for a continuous attribute, from its
    observed range in the base relations. *)

val decision_node : ?db:Database.t -> Feature.t -> t
(** Section 2.2: the variance triples (SUM(y^2), SUM(y), COUNT) per
    candidate split — threshold filters for continuous features (thresholds
    from [db] when given), grouped triples for categorical ones. *)

val mutual_information : string list -> t
(** COUNT plus all marginal and pairwise joint counts over the attributes
    (model selection / Chow-Liu trees). *)

val kmeans : Feature.t -> t
(** Rk-means-style sufficient statistics: COUNT, per-dimension sums, and
    categorical frequency vectors. *)

val eval_flat : Relation.t -> t -> (string * Spec.result) list
(** Naive evaluation of the whole batch over a materialised data matrix. *)

val pp : Format.formatter -> t -> unit

val fingerprint : t -> int
(** Order-sensitive content fingerprint of the batch: [Util.Checksum.crc32]
    of its marshalled bytes, so it covers the name and every aggregate's id,
    terms, group-by and filter (float constants by bit pattern);
    non-negative and stable across runs of one build. Cache key material: a
    CRC-32 can collide, so a cache hit must also check {!equal}. *)

val equal : t -> t -> bool
(** Structural equality: same name, same aggregates (ids included) in the
    same order. *)

val covariance_numeric : string list -> t
(** The numeric part of {!covariance} over an explicit feature list: COUNT,
    SUM(x) and SUM(x*y) only — the batch shape a covariance-maintaining
    serving cache can refresh without recomputation. *)
