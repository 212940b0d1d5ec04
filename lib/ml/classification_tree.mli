(** Classification trees from aggregate batches (Section 2.2): per-node
    class-frequency counts (grouped, optionally filtered) score candidate
    splits by Gini impurity or entropy; the data matrix is never
    materialised during training. The grower is {!Cart}'s. A leaf predicts
    its most frequent class, the smallest by [Value.compare] on a tie. *)

open Relational
module Feature = Aggregates.Feature

type criterion = Gini | Entropy

type tree =
  | Leaf of { prediction : Value.t; counts : (Value.t * float) list }
  | Node of { split : Cart.split; left : tree; right : tree; count : float }

type params = {
  max_depth : int;
  min_samples : float;
  min_gain : float;
  criterion : criterion;
}

val default_params : params

val node_specs :
  path:Predicate.t ->
  class_attr:string ->
  Feature.t ->
  (string * float list) list ->
  Aggregates.Spec.t list
(** The per-node batch: grouped class counts under the path filter, per
    threshold and per categorical feature. *)

val train :
  ?params:params ->
  Database.t ->
  class_attr:string ->
  Feature.t ->
  tree
(** Structure-aware training; [class_attr] must not appear in the feature
    map. One LMFAO batch per node. *)

val train_flat :
  ?params:params ->
  Relation.t ->
  class_attr:string ->
  Feature.t ->
  thresholds:(string * float list) list ->
  tree
(** Same algorithm over a materialised matrix — the reference. *)

val predict : tree -> (string -> Value.t) -> Value.t
val accuracy : tree -> Relation.t -> class_attr:string -> float
val size : tree -> int
