(** The staged-compilation engine ("lmfao-compiled"): lowers the LMFAO
    logical plan through the typed IR, optimises it, and executes
    specialised closures. Satisfies {!Aggregates.Engine_intf.S}. Results
    are bitwise equal to {!Lmfao.Engine}, which stays the oracle; cyclic
    schemas fall back to the interpreter's materialising path (counted in
    [lmfao.compile.cyclic]). {!eval_batch} is the one way the learners and
    the serving layer evaluate a batch. *)

open Relational
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch

type options = Lmfao.Engine.options

val default_options : options

type compiled
(** A compiled batch: one optimised {!Ir.rooted} per multi-root group,
    tagged with a plan signature. *)

val compile : ?options:options -> Database.t -> Batch.t -> compiled
(** Compile without consulting the cache. Counts [lmfao.compile.plans];
    runs under the [lmfao.compile.plan] span with [lmfao.compile.lower] /
    [lmfao.compile.passes] child spans.
    @raise Join_tree.Cyclic on cyclic schemas
    @raise Lmfao.Plan.Unsupported on non-decomposable filters *)

val run : compiled -> Database.t -> (string * Spec.result) list
(** Execute a compiled batch against a database with the schema and
    relation cardinality order it was compiled for. *)

val cache_capacity : int
(** Entries the global plan cache holds (least recently used evicted
    first). Its current size is the [lmfao.compile.cache_size] gauge. *)

(** {1 Engine_intf} *)

val name : string
val description : string

val eval_batch :
  ?options:options -> Database.t -> Batch.t -> (string * Spec.result) list
(** Evaluate through the global plan cache: a hit needs the same
    fingerprint, a structurally equal batch, the same options and a
    still-valid plan signature (hits count [lmfao.compile.cache_hits]);
    anything else compiles and caches. Thread-safe. Cyclic schemas go to
    [Lmfao.Engine.eval_batch] (join materialisation). Results are grouped
    by decomposition root, not in batch order.
    @raise Lmfao.Plan.Unsupported on non-decomposable filters *)

val lookup : ?options:options -> Database.t -> Batch.t -> string -> Spec.result
(** [lookup db batch] evaluates the batch once ({!eval_batch}) and returns
    its results by aggregate id.
    @raise Invalid_argument on an id the batch does not define *)
