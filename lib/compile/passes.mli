(** Stage 2: optimisation passes over the physical IR. Every pass
    preserves execution results BITWISE (enforced by the qcheck
    stage-equivalence suite); see the implementation header for the
    constraints this puts on each transformation. *)

val fuse_filters : Ir.rooted -> Ir.rooted
(** Hoist filter conjuncts shared by every slot of a node into the node's
    scan filter (tested once per row). The scan filter gates the slot
    program only — never the view's key insertion. *)

val merge_slots : Ir.rooted -> Ir.rooted
(** Collapse structurally identical slots bottom-up, keeping first
    occurrences (so payload and accumulation order match the
    interpreter's canonical-string sharing). *)

val dead_slots : Ir.rooted -> Ir.rooted
(** Drop slots that no output and no live parent slot references. *)

val all : share:bool -> (string * (Ir.rooted -> Ir.rooted)) list
(** The pipeline stages in order, named (for the stage-equivalence
    suite). With [share = false] the merge pass is the identity, matching
    the interpreter's [share = false] semantics. *)

val pipeline : ?share:bool -> Ir.rooted -> Ir.rooted
(** [fuse_filters |> merge_slots (if share) |> dead_slots].
    [share] defaults to [true]. *)
