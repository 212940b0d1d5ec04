(** Payload rings for incremental view maintenance: a ring plus efficient
    integer scaling for Z-multiplicities. *)

module type S = sig
  include Rings.Sig.RING

  val smul : int -> t -> t
  (** m-fold sum ([neg] for negative m). *)

  val is_zero : t -> bool
  (** EXACT additive-identity test (no tolerance): view trees drop entries
      whose payload cancelled to zero, so churn that nets a group to zero
      multiplicity leaves no 0-weight residue behind. *)

  val copy : t -> t
  (** A value sharing no mutable state with the argument (the identity for
      immutable payloads). *)

  val add_into : t -> t -> t
  (** [add_into acc d] is [add acc d] bit for bit, but may reuse [acc]'s
      storage: the caller must own [acc] and use only the result afterwards.
      [d] is left untouched, and the result shares no mutable state with
      it. *)
end

module Float : S with type t = float

module Cov (_ : sig
  val n : int
end) : S with type t = Rings.Covariance.t

val cov : int -> (module S with type t = Rings.Covariance.t)
(** First-class covariance payload at a runtime dimension. *)

(** Dimension-agnostic covariance payload: [`Zero] and [`One] are symbolic,
    so no static dimension is needed (it is read off the first concrete
    element). The dimension-less combinations ([`One + `One], [neg `One],
    [smul m `One]) are rejected; view-tree maintenance never produces them. *)
module Cov_dyn : S with type t = [ `Zero | `One | `Elem of Rings.Covariance.t ]

val cov_elem : int -> [ `Zero | `One | `Elem of Rings.Covariance.t ] -> Rings.Covariance.t
(** Concretise a dynamic payload at the given dimension. *)
