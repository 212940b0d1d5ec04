(** The typed physical IR of the staged compiler (stage 1 output): one
    LMFAO rooted decomposition as pure, closure-free data. Attribute names
    are resolved to column positions, column representations are recorded
    explicitly, and filters stay first-order — so plans have meaningful
    structural equality (used by the merge pass), and the executor can
    emit monomorphic accessors per representation. *)

open Relational

(** Column representation observed at lowering time. The executor
    re-checks against the live [Column.data] and counts any drift as a
    specialization fallback. *)
type rep = Rint | Rfloat | Rboxed

(** Single-attribute filter conjuncts: [Predicate.t] with attribute names
    resolved to column positions. *)
type filter =
  | FTrue
  | FGe of int * Value.t
  | FLt of int * Value.t
  | FEq of int * Value.t
  | FIn of int * Value.t list
  | FNot of filter
  | FAnd of filter * filter
  | FOr of filter * filter
  | FAdditive of (int * float) list * float

type term = { t_pos : int; t_power : int; t_rep : rep }

type key_shape = { k_positions : int array; k_reps : rep array; k_width : int }

type slot = {
  s_key : string;  (** provenance: slot key of the first logical partial *)
  s_terms : term array;
  s_groups : (string * int) array;  (** owned group-by (attr, position) *)
  s_filters : filter list;  (** residual conjuncts, tested per row *)
  s_children : int array;  (** per child: slot index in that child *)
  s_scalar : bool;
}

type node = {
  n_rel : string;  (** resolved against the live database at bind time *)
  n_key : key_shape;
  n_child_keys : key_shape array;
  n_scan_filters : filter list;
      (** conjuncts common to EVERY slot, hoisted to the scan *)
  n_slots : slot array;
  n_children : node array;
}

type rooted = {
  r_root : string;
  r_node : node;
  r_outputs : (string * int) array;  (** aggregate id -> root slot index *)
}

val slot_structure :
  slot ->
  term array * (string * int) array * filter list * int array * bool
(** The behaviour-determining part of a slot ([s_key] is provenance only):
    two slots with equal structure hold equal payloads after any scan. *)

val to_string : rooted -> string
(** Multi-line rendering of a rooted plan (debugging, DESIGN examples). *)
