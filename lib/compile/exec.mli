(** Stage 3: bind a physical IR plan to a live database and run it — a
    per-chunk register file of the columns the terms read, loaded once per
    row, and a flat slot program run by one allocation-free loop.
    Results are BITWISE equal to {!Lmfao.Engine} on the same logical plan
    (the differential qcheck suite enforces this). *)

open Relational
module Spec = Aggregates.Spec

type options = Lmfao.Engine.options
(** Only [parallel] and [chunk_threshold] matter here; [share] and
    [multi_root] are already baked into the plan. *)

val compute_rooted :
  options:options -> Database.t -> Ir.rooted -> (string * Spec.result) list
(** Execute one rooted plan: bind (registers, filters and key extractors
    to the live column representations — drift is counted in
    [lmfao.compile.fallbacks]), scan, and extract each output aggregate
    from its root slot. Runs under [lmfao.compile.root:*] /
    [lmfao.compile.view:*] spans and counts
    [lmfao.compile.tuples_scanned]. *)
