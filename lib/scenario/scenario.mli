(** Hostile-stream scenario cells: one (dataset x stream-shape) pair from
    {!Datagen.Stream_gen.hostile} driven through every layer of the stack —
    F-IVM maintenance under all three strategies, sharded maintenance,
    crash/recovery, aggregate serving, model serving, and the out-of-core
    streamed engines — each layer checked by a BIT-identity differential
    against an independent oracle (hostile streams live on the dyadic float
    lattice, where covariance-ring arithmetic is exact).

    Counters: [scenario.cells], [scenario.checks], [scenario.failures],
    [scenario.updates], [scenario.deletes]. Span: [scenario.cell]. *)

type check = {
  layer : string;  (** one of {!layers} *)
  ok : bool;
  detail : string;  (** human-readable differential verdict *)
}

val differential :
  ?ok:bool -> layer:string -> string -> (string * string * Oracle.verdict) list -> check
(** [differential ~layer context pairs] is how every layer builds its
    check: ok when [ok] (default [true]) and every [(lhs, rhs, verdict)]
    holds. The detail is [context] followed by ["lhs == rhs"] per pair, or
    ["lhs <> rhs at <diff>"] with {!Oracle}'s located diff. *)

type cell = {
  dataset : string;
  shape : string;  (** {!Datagen.Stream_gen.shape_name} of the stream *)
  updates : int;  (** delta tuples pushed through each layer *)
  deletes : int;  (** how many of them were deletions *)
  checks : check list;  (** in execution order *)
}

val layers : string list
(** ["maintain"; "shard"; "resilience"; "serve"; "model"; "streamed"]. *)

val cell_ok : cell -> bool

val run_cell :
  ?seed:int ->
  ?shards:int list ->
  ?layers:string list ->
  dataset:string ->
  shape:Datagen.Stream_gen.shape ->
  features:string list ->
  Relational.Database.t ->
  cell
(** Run one cell over a generated database (transformed and streamed by
    [Stream_gen.hostile shape]): maintain under all three strategies
    (each against its own recompute AND the F-IVM triple), shard x
    [shards] (default [{1; 4; 8}], merged and recomputed against the
    unsharded triple), crash recovery with the full damage grammar
    ([crash-after], [torn-tail], [reorder], [dup]) against a never-crashed
    run, serve (cache miss and hit against a fresh engine evaluation, mid-
    stream and at end), model (warm-refreshed linreg-closed against a cold
    retrain), and streamed (both LMFAO engines over a paged spill of the
    final live set against in-memory). [layers] restricts which layers
    run. *)

val pp_cell : Format.formatter -> cell -> unit
