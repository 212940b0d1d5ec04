(** The lattice star workload: [F(a,b,m)], [D1(a,u)], [D2(b,v)] with int
    join keys in [0, 4) and float features [m], [u], [v], plus its seeded
    insert/delete stream and the served batch mix. This is the one
    definition the CLI ([serve lattice], [learn], [traffic]), the bench and
    the maintenance, sharding, recovery, serving and store tests share.

    With {!lattice} feature values every covariance sum is exactly
    representable in a float, so maintained, sharded, recovered and served
    results must equal a recompute bit for bit. Streams are a function of
    the seed alone: the draws below happen in a fixed order, which the
    pinned stream digests in the test suite guard. *)

val db : unit -> Relational.Database.t
(** A fresh empty star database. *)

val features : string list
(** [["m"; "u"; "v"]]. *)

val lattice : Util.Prng.t -> float
(** One draw from the dyadic lattice: a strictly positive multiple of 1/16,
    at most 4. *)

val insert : value:(Util.Prng.t -> float) -> Util.Prng.t -> Fivm.Delta.update
(** A single-tuple insert into a uniformly drawn relation, with keys drawn
    from [0, 4) and the feature from [value]. *)

type live
(** The inserts of a stream not yet deleted. *)

val live : unit -> live

val live_inserts : live -> Fivm.Delta.update list
(** Oldest first. *)

val update : value:(Util.Prng.t -> float) -> live -> Util.Prng.t -> Fivm.Delta.update
(** When [live] is non-empty, with probability 1/4 delete one of its tuples
    drawn uniformly; otherwise {!insert} and record the insert in [live]. *)

val stream :
  value:(Util.Prng.t -> float) -> seed:int -> steps:int -> Fivm.Delta.update list
(** [steps] {!update} draws from a fresh generator and live set. *)

val cov_batch : Aggregates.Batch.t
(** [Batch.covariance_numeric features]: refreshed in place on deltas. *)

val mi_batch : Aggregates.Batch.t
(** [Batch.mutual_information ["a"; "b"]]: invalidated on deltas. *)

val batches : Aggregates.Batch.t list
(** The served mix: [cov_batch], [mi_batch] and a grouped batch (the sum
    of [m] by [a], and the row count; invalidated on deltas). *)
