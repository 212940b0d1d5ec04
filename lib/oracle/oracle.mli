(** Bit-equality oracle: the one place that decides whether a fast path
    reproduced its reference, bit for bit.

    Every differential in the repo (maintained == recompute, sharded ==
    unsharded, recovered == crash-free, served == fresh, paged ==
    in-memory, compiled == interpreted) goes through these comparators.
    Floats are equal when their IEEE bit patterns are: [-0.0] differs from
    [0.0], and a NaN equals only a NaN with the same payload.

    A comparison returns [Ok ()] or [Error diff], where [diff] names the
    FIRST differing coordinate and prints both floats in [%h] (exact
    hexadecimal; a NaN as [nan(0x<bits>)]), e.g.
    ["q[1][2]: 0x1.8p+1 vs 0x1.8000000000001p+1"] or
    ["id \"s_u\" {}: 0x0p+0 vs -0x0p+0"]. In every diff the first argument
    is the result under test and the second the reference. *)

open Relational

type verdict = (unit, string) result

val value : Value.t -> Value.t -> verdict
(** Same constructor, and floats by bit pattern. *)

val tuple : Tuple.t -> Tuple.t -> verdict
(** Same arity, then {!value} per column; the diff names the column index. *)

val relation : Relation.t -> Relation.t -> verdict
(** Same attribute names and cardinality, then {!tuple} row by row; the
    diff names the row and the column. *)

val covariance : Rings.Covariance.t -> Rings.Covariance.t -> verdict
(** Same dimension, then [c], [s.(i)] and [q.(i).(j)] (row-major); the
    diff names one of [c], [s[i]], [q[i][j]]. *)

type keyed = (string * Aggregates.Spec.result) list
(** Batch results keyed by aggregate id. *)

val keyed : keyed -> keyed -> verdict
(** Strict: the same ids in the same order, and per id the same group keys
    in the same order with bit-identical values. The diff names an extra id
    (only in the first argument), a missing id (only in the second), an id
    out of order, or, within an id, an extra or missing row, a differing
    key or a differing value. *)

val canonical : keyed -> keyed
(** Ids sorted, and each id's rows sorted by group key (stably). Compare
    [keyed (canonical a) (canonical b)] where only the contents must
    match: an engine returns aggregates grouped by decomposition root,
    the serving cache in batch order. *)

val packed : Ml.Model_intf.packed -> Ml.Model_intf.packed -> verdict
(** The bytes of {!Ml.Model_intf.encode_packed} (model name and payload);
    the diff names the first differing byte offset. *)
