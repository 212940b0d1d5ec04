(** Dense row-major float matrices with the linear algebra needed by the
    in-database learning tasks (Cholesky solve, power iteration, rank-1
    updates). *)

type t

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val copy : t -> t
val data : t -> float array
(** The row-major backing array, shared (not a copy): entry [(i, j)] is at
    [i * cols + j]. For kernels that must not box floats across the
    out-of-line {!get}. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val update : t -> int -> int -> (float -> float) -> unit
val of_arrays : float array array -> t
val to_arrays : t -> float array array
val row : t -> int -> float array

val map : (float -> float) -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val add_in_place : t -> t -> unit
val transpose : t -> t
val matmul : t -> t -> t
val matvec : t -> float array -> float array

val ger : alpha:float -> float array -> float array -> t -> unit
(** [ger ~alpha x y m] performs the rank-1 update [m := m + alpha * x * y^T]. *)

exception Not_positive_definite

val cholesky : t -> t
(** Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
    @raise Not_positive_definite otherwise. *)

val solve_spd : t -> float array -> float array
(** [solve_spd a b] solves [a x = b] for symmetric positive-definite [a]. *)

val frobenius : t -> float
val equal : ?eps:float -> t -> t -> bool
val is_symmetric : ?eps:float -> t -> bool

val power_iteration : ?iters:int -> ?eps:float -> t -> Vec.t -> float * Vec.t
(** Dominant eigenvalue/eigenvector by power iteration, seeded with the given
    start vector. *)

val pp : Format.formatter -> t -> unit
