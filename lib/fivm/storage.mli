(** Mutable base-relation storage for IVM: Z-multisets of tuples plus hash
    indexes on every join key shared with a join-tree neighbour. Strategies
    compute their view deltas against the pre-update state, then the driver
    calls {!apply} once. Multiset and indexes hash {!Keypack} keys, so
    in-range int join keys probe as immediate ints.

    Index buckets are intrusive doubly-linked lists, so {!apply} costs the
    same whatever the bucket sizes: a delete unlinks the tuple's cells in
    O(1). Buckets run newest first, and a tuple that returns after reaching
    multiplicity 0 goes back to the head. *)

open Relational

type node
(** One relation's multiset and join-key indexes. *)

type t

val create : Database.t -> t
(** Empty storage shaped by the database's schemas and join tree. *)

val node : t -> string -> node
(** @raise Invalid_argument on an unknown relation. *)

val schema : node -> Schema.t

val neighbours : node -> string list
(** The node's join-tree neighbours, one per index. *)

val multiplicity : node -> Tuple.t -> int

val iter_matching :
  node -> neighbour:string -> Keypack.key -> (Tuple.t -> int -> unit) -> unit
(** [iter_matching n ~neighbour key f] calls [f tuple multiplicity] on every
    distinct tuple of [n] joining with the given neighbour-edge key, newest
    first, without allocating. [f] must not update the storage. *)

val fold_matching :
  node ->
  neighbour:string ->
  Keypack.key ->
  (Tuple.t -> int -> 'a -> 'a) ->
  'a ->
  'a
(** {!iter_matching} as a fold, in the same order. *)

val key_for : node -> neighbour:string -> Tuple.t -> Keypack.key
(** A tuple's join key towards the given neighbour (sorted attribute
    order — both edge endpoints agree on it). *)

val apply : t -> Delta.update -> unit
(** Apply the update to the multiset and all indexes; entries reaching
    multiplicity 0 are removed. O(number of indexes). *)

val total_tuples : t -> int
(** Sum of the absolute multiplicities of all stored tuples. O(1). *)

val join_tree : t -> Join_tree.t
val iter_tuples : node -> (Tuple.t -> int -> unit) -> unit

val dump : t -> Delta.update list
(** Live contents as bulk inserts in insertion-stamp order (oldest first):
    applying them to a fresh storage reproduces every index bucket in the
    original order, which keeps downstream float accumulation bit-identical
    (the checkpoint/restore contract). *)
