(** Resilient batch driver around the F-IVM maintenance loop: validate →
    quarantine or WAL-append → apply (with retry/backoff under injected
    transient faults) → commit, with periodic checkpoints, periodic audits
    against {!Fivm.Maintainer.recompute} (divergence triggers a rebuild from
    base storage), and crash recovery from the newest valid checkpoint plus
    the WAL tail. All activity is counted under [resilience.*]. *)

open Fivm

type config = {
  dir : string;  (** WAL + checkpoint directory (created if absent) *)
  checkpoint_every : int;  (** commits between checkpoints; 0 = never *)
  audit_every : int;  (** commits between audits; 0 = never *)
  audit_eps : float;  (** relative tolerance of the audit comparison *)
  max_retries : int;  (** transient-failure retry budget per update *)
  faults : Faults.t;
}

val config :
  ?checkpoint_every:int ->
  ?audit_every:int ->
  ?audit_eps:float ->
  ?max_retries:int ->
  ?faults:Faults.t ->
  string ->
  config
(** [config dir] with defaults: checkpoint every 256 commits, no audits,
    [audit_eps = 1e-6], 8 retries, no faults. *)

type t

val create : config -> (unit -> Maintainer.t) -> t
(** Always starts with recovery (a [resilience.recover] span): restore the
    newest valid checkpoint, repair a torn WAL tail to its valid prefix,
    replay WAL records past the checkpoint. A fresh directory yields an
    empty maintainer at sequence 0. [make] supplies empty maintainers of the
    desired strategy; it is also used by audit-failure rebuilds. *)

type outcome = Applied | Quarantined of string

val submit : t -> Delta.update -> outcome
(** One update through the durability contract. Malformed updates (unknown
    relation, wrong arity, type mismatch, non-finite value) are quarantined
    without being logged. May raise {!Faults.Crash} under an injected crash
    — the driver damages disk state as configured and re-raises; recover by
    calling {!create} again with the same config. *)

val submit_batch : t -> Delta.update list -> unit
(** Submit updates in order inside a [resilience.batch] span. *)

val submit_all :
  max_restarts:int -> on_crash:(t -> unit) -> t -> Delta.update array -> t * int
(** Submit the updates in order, surviving injected crashes: on a
    {!Faults.Crash} the driver is re-created from its own config and maker
    (recovering from disk), passed to [on_crash], and the array resumes at
    [seq - s0], where [s0] is the committed count on entry — exact as long
    as the crash window holds no quarantined updates, which do not advance
    [seq]. Returns the final driver and the number of restarts. Raises
    [Failure] on a crash past [max_restarts] restarts; [on_crash] has then
    already received the driver recovered from that crash. *)

val covariance : t -> Rings.Covariance.t
(** The maintained result — keeps answering across recoveries/rebuilds. *)

val seq : t -> int
(** Committed update count; a caller resuming a stream after a crash feeds
    updates from position [seq] onwards. *)

val quarantined : t -> (Delta.update * string) list
(** Dead-letter list in arrival order. *)

val maintainer : t -> Maintainer.t

val checkpoint_now : t -> unit
(** Checkpoint (atomic rename) and rotate the WAL. *)

val audit_now : t -> bool
(** Compare maintained vs recomputed covariance; [false] means divergence
    was found (and views were rebuilt from base storage). *)

val close : t -> unit
(** Checkpoint, then close the WAL. *)
