(** The one CART grower behind regression and classification trees (Section
    2.2). Each node is answered by one batch of filtered aggregates under
    the node's path; a {!kind} says which aggregates make one side of a
    split and how to score it. The data matrix is never materialised. *)

open Relational
module Spec = Aggregates.Spec
module Feature = Aggregates.Feature

type split =
  | Threshold of string * float  (** goes left when attr >= threshold *)
  | Category of string * Value.t  (** goes left when attr = value *)

val goes_left : split -> (string -> Value.t) -> bool
(** The split test, on one row's attribute getter. *)

type ('stat, 'tree) kind = {
  side : id:string -> filter:Predicate.t -> group_by:string list -> Spec.t list;
      (** The aggregates of side [id]: [group_by] is [[k]] for the side
          [by|k] and empty otherwise. *)
  read : 'stat option -> (string -> Spec.result) -> string -> 'stat;
      (** Side [id]'s statistic; under [Some node] aligned on the node's
          classes. *)
  grouped :
    'stat -> (string -> Spec.result) -> id:string -> string -> (Value.t * 'stat) list;
      (** [grouped node lookup ~id k]: the left statistic of each one-vs-rest
          split on [k], read off side [id]. *)
  count : 'stat -> float;
  subtract : 'stat -> 'stat -> 'stat;
  gain : 'stat -> 'stat -> 'stat -> float;  (** [gain node left right] *)
  splittable : 'stat -> bool;
  leaf : 'stat -> 'tree;
  node : split -> 'tree -> 'tree -> float -> 'tree;  (** last: the node's count *)
}
(** What one kind of tree gives the grower: its criterion and its
    constructors. *)

val node_specs :
  ('stat, 'tree) kind -> path:Predicate.t -> Feature.t -> (string * float list) list -> Spec.t list
(** The per-node batch: side [total], side [ge|x|j] per threshold [j] of
    continuous [x], side [by|k] per categorical [k], each under [path]. *)

val thresholds_of_db : Database.t -> Feature.t -> (string * float list) list

val train :
  ('stat, 'tree) kind ->
  max_depth:int ->
  min_samples:float ->
  min_gain:float ->
  Database.t ->
  Feature.t ->
  'tree
(** One compiled LMFAO batch per node. A node splits on the candidate of
    highest gain (ties by split description) when the gain exceeds
    [min_gain], it holds at least [min_samples] rows and is shallower than
    [max_depth]. A node at [max_depth] is a leaf, so its batch holds only
    the [total] side. [ml.cart.node_aggregates] counts the aggregates every
    node requests. *)

val train_flat :
  ('stat, 'tree) kind ->
  max_depth:int ->
  min_samples:float ->
  min_gain:float ->
  Relation.t ->
  Feature.t ->
  thresholds:(string * float list) list ->
  'tree
(** The same grower with every batch answered by scans over a materialised
    matrix — the reference. *)
