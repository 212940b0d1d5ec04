(* Payload rings for incremental view maintenance: a ring plus efficient
   integer scaling (for Z-multiplicities). *)

module type S = sig
  include Rings.Sig.RING

  val smul : int -> t -> t
  (** [smul m x] is the m-fold sum of [x] (negative m uses [neg]). *)

  val is_zero : t -> bool
  (** EXACT additive-identity test (no tolerance). Used by the view trees to
      drop entries whose payload cancelled to zero, so a group that churned
      down to zero multiplicity leaves no trace — bit-matching a recompute
      that never saw the group. *)

  val copy : t -> t
  (** Shares no mutable state with the argument. *)

  val add_into : t -> t -> t
  (** [add acc d], possibly computed in place in the caller-owned [acc];
      [d] is untouched and never aliased by the result. *)
end

module Float : S with type t = float = struct
  include Rings.Instances.R

  let smul m x = float_of_int m *. x
  let is_zero x = x = 0.0
  let copy x = x
  let add_into = add
end

(* The covariance ring at a fixed dimension: F-IVM's compound payload. *)
module Cov (D : sig
  val n : int
end) : S with type t = Rings.Covariance.t = struct
  include Rings.Covariance.Make (D)

  let smul m x = Rings.Covariance.smul (float_of_int m) x
  let is_zero = Rings.Covariance.is_zero
  let copy = Rings.Covariance.copy

  let add_into acc d =
    Rings.Covariance.add_in_place acc d;
    acc
end

let cov n : (module S with type t = Rings.Covariance.t) =
  (module Cov (struct
    let n = n
  end))

(* Dimension-agnostic covariance payload: [Zero] and [One] are symbolic so
   that the module needs no static dimension (the dimension is read off the
   first concrete element). [add One One], [neg One] and [smul m One] have no
   dimension to build from and are rejected; the view-tree maintenance never
   produces them (lifts are always concrete). *)
module Cov_dyn : S with type t = [ `Zero | `One | `Elem of Rings.Covariance.t ] =
struct
  module C = Rings.Covariance

  type t = [ `Zero | `One | `Elem of C.t ]

  let zero = `Zero
  let one = `One

  let add a b =
    match (a, b) with
    | `Zero, x | x, `Zero -> x
    | `One, `Elem e | `Elem e, `One -> `Elem (C.add (C.one (C.dim e)) e)
    | `Elem x, `Elem y -> `Elem (C.add x y)
    | `One, `One -> invalid_arg "Cov_dyn.add: One + One has no dimension"

  let mul a b =
    match (a, b) with
    | `Zero, _ | _, `Zero -> `Zero
    | `One, x | x, `One -> x
    | `Elem x, `Elem y -> `Elem (C.mul x y)

  let neg = function
    | `Zero -> `Zero
    | `Elem e -> `Elem (C.neg e)
    | `One -> invalid_arg "Cov_dyn.neg: One has no dimension"

  let smul m = function
    | `Zero -> `Zero
    | `Elem e -> `Elem (C.smul (float_of_int m) e)
    | `One -> invalid_arg "Cov_dyn.smul: One has no dimension"

  let is_zero = function
    | `Zero -> true
    | `One -> false
    | `Elem e -> C.is_zero e

  let copy = function `Elem e -> `Elem (C.copy e) | x -> x

  let add_into acc d =
    match (acc, d) with
    | `Elem x, `Elem y ->
        C.add_in_place x y;
        acc
    | _, `Zero -> acc
    | `Zero, x -> copy x
    | _ -> add acc d

  let equal a b =
    match (a, b) with
    | `Zero, `Zero | `One, `One -> true
    | `Elem x, `Elem y -> C.equal x y
    | `Zero, `Elem e | `Elem e, `Zero -> C.equal (C.zero (C.dim e)) e
    | `One, `Elem e | `Elem e, `One -> C.equal (C.one (C.dim e)) e
    | `Zero, `One | `One, `Zero -> false

  let to_string = function
    | `Zero -> "0"
    | `One -> "1"
    | `Elem e -> C.to_string e
end

let cov_elem n = function
  | `Zero -> Rings.Covariance.zero n
  | `One -> Rings.Covariance.one n
  | `Elem e -> e
