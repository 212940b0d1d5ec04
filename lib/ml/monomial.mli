(** Monomials over continuous features and the degree-2 basis shared by
    polynomial regression and factorisation machines (Section 2.1). The
    basis's moment matrix consists of SUM-PRODUCT aggregates of degree up to
    4 — still plain [Spec] terms, so the same LMFAO engine computes the
    whole batch over the join without materialising it. *)

open Relational

type t = (string * int) list
(** Sorted (attribute, power) products; [] is the constant 1. *)

val basis : string list -> t list
(** All monomials of total degree <= 2 over the features. *)

val name : t -> string
val mul : t -> t -> t
val eval : t -> (string -> float) -> float

val batch_for : string list -> response:string -> Aggregates.Batch.t * t list
(** The deduplicated aggregate batch covering every basis-pair product and
    basis-response product. *)

val column_name : t -> string
(** The monomial's column name in a basis-space {!Moment.t}: the constant is
    "intercept", everything else {!name}. *)

val moment_of_database :
  Database.t ->
  features:string list ->
  response:string ->
  Moment.t * int
(** Basis-space moments over the join in one LMFAO batch; also returns the
    batch size (for timing reports). Columns are the basis monomials
    followed by the response, so linear-regression machinery applies
    verbatim in basis space. *)

val moment_of_rows :
  columns:string array ->
  features:string list ->
  response:string ->
  float array array ->
  float array ->
  Moment.t
(** The same moments accumulated over explicit rows ([columns] names the
    columns of the row matrix; the structure-agnostic reference). *)
