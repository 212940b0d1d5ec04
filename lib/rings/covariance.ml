(* The covariance ring (paper Section 5.2).

   Elements are triples (c, s, Q): a scalar count, a vector of sums, and a
   matrix of sums of products, over a fixed feature dimension n:

     SUM(1)        SUM(x_i)        SUM(x_i * x_j)

   Addition is component-wise. Multiplication

     (c1,s1,Q1) * (c2,s2,Q2) =
       (c1*c2,  c2*s1 + c1*s2,  c2*Q1 + c1*Q2 + s1 s2^T + s2 s1^T)

   captures the shared computation across the whole aggregate batch: counts
   scale sums, sums build products. Lifting feature i's value x to
   (1, x*e_i, x^2*E_ii) and taking the ring product across a tuple's features
   yields the tuple's full second-moment contribution; summing over tuples
   yields all (n+1)^2 covariance aggregates in one pass. *)

open Util

type t = { mutable c : float; s : Vec.t; q : Mat.t }

let dim t = Vec.dim t.s

let zero n = { c = 0.0; s = Vec.create n; q = Mat.create n n }

let one n = { c = 1.0; s = Vec.create n; q = Mat.create n n }

let copy a = { c = a.c; s = Vec.copy a.s; q = Mat.copy a.q }

(* The kernels below loop over the flat [float array]s of s and of Q
   (row-major), so no float is boxed on the way. Each coordinate keeps the
   expression and association order of the element-wise formulas, so the
   results are bit for bit those of the textbook definitions above. *)

let check_dims name a b =
  if dim a <> dim b then invalid_arg ("Covariance." ^ name ^ ": dimension mismatch")

let add a b =
  check_dims "add" a b;
  let n = dim a in
  let s = Vec.create n in
  let as_ = a.s and bs = b.s in
  for i = 0 to n - 1 do
    s.(i) <- as_.(i) +. bs.(i)
  done;
  let q = Mat.create n n in
  let qd = Mat.data q and aq = Mat.data a.q and bq = Mat.data b.q in
  for k = 0 to (n * n) - 1 do
    qd.(k) <- aq.(k) +. bq.(k)
  done;
  { c = a.c +. b.c; s; q }

(* [a := a + b], leaving [b] untouched: bit for bit [add a b]. *)
let add_in_place a b =
  check_dims "add_in_place" a b;
  a.c <- a.c +. b.c;
  Vec.add_in_place a.s b.s;
  Mat.add_in_place a.q b.q

(* [(c, k*s, k*Q)]: the shared body of [neg] and [smul]. *)
let scaled c k a =
  let n = dim a in
  let s = Vec.create n in
  let as_ = a.s in
  for i = 0 to n - 1 do
    s.(i) <- k *. as_.(i)
  done;
  let q = Mat.create n n in
  let qd = Mat.data q and aq = Mat.data a.q in
  for idx = 0 to (n * n) - 1 do
    qd.(idx) <- k *. aq.(idx)
  done;
  { c; s; q }

let neg a = scaled (-.a.c) (-1.0) a

let smul k a = scaled (k *. a.c) k a

let mul a b =
  check_dims "mul" a b;
  let n = dim a in
  let ac = a.c and bc = b.c in
  let as_ = a.s and bs = b.s in
  let s = Vec.create n in
  for i = 0 to n - 1 do
    s.(i) <- (bc *. as_.(i)) +. (ac *. bs.(i))
  done;
  let q = Mat.create n n in
  let qd = Mat.data q and aq = Mat.data a.q and bq = Mat.data b.q in
  for i = 0 to n - 1 do
    let asi = as_.(i) and bsi = bs.(i) and row = i * n in
    for j = 0 to n - 1 do
      qd.(row + j) <-
        (bc *. aq.(row + j))
        +. (ac *. bq.(row + j))
        +. (asi *. bs.(j))
        +. (bsi *. as_.(j))
    done
  done;
  { c = ac *. bc; s; q }

(* Lift of feature [i]'s value [x]: the ring image of a single attribute
   value (Figure 10's per-value triples, generalised with the x^2 diagonal). *)
let lift n i x =
  let s = Vec.create n in
  s.(i) <- x;
  let q = Mat.create n n in
  Mat.set q i i (x *. x);
  { c = 1.0; s; q }

(* Fast path: the ring product of the lifts of all features of one tuple is
   (1, x, x x^T); build it directly instead of n-1 ring multiplications. *)
let of_tuple xs =
  let n = Array.length xs in
  let q = Mat.create n n in
  Mat.ger ~alpha:1.0 xs xs q;
  { c = 1.0; s = Vec.copy xs; q }

(* Mutable accumulator: folds tuples (with multiplicities) into a running
   (c, s, Q) without allocating a triple per tuple. This is the specialised
   inner loop that the "specialisation" stage of Figure 6 uses. *)
module Acc = struct
  type acc = { mutable count : float; sums : Vec.t; prods : Mat.t }

  let create n = { count = 0.0; sums = Vec.create n; prods = Mat.create n n }

  let add_tuple acc ?(multiplicity = 1.0) xs =
    acc.count <- acc.count +. multiplicity;
    Vec.axpy ~alpha:multiplicity xs acc.sums;
    Mat.ger ~alpha:multiplicity xs xs acc.prods

  let add_triple acc (x : t) =
    acc.count <- acc.count +. x.c;
    Vec.add_in_place acc.sums x.s;
    Mat.add_in_place acc.prods x.q

  let freeze acc : t =
    { c = acc.count; s = Vec.copy acc.sums; q = Mat.copy acc.prods }
end

(* Exact structural zero (no tolerance): the test that decides whether a
   maintained view entry may be dropped. Tolerant comparison here would
   discard near-zero-but-real contributions and break bit-identity with a
   from-scratch recompute; [x = 0.0] admits both float zeros, which is right
   because an exactly-cancelled group is indistinguishable from one a
   recompute never saw. *)
let is_zero a =
  let all_zero (v : float array) =
    let rec go i = i = Array.length v || (v.(i) = 0.0 && go (i + 1)) in
    go 0
  in
  a.c = 0.0 && all_zero a.s && all_zero (Mat.data a.q)

let equal ?(eps = 1e-7) a b =
  Float.abs (a.c -. b.c) <= eps && Vec.equal ~eps a.s b.s && Mat.equal ~eps a.q b.q

(* Relative comparison: tolerant of accumulation-order float differences on
   large-magnitude sums. *)
let equal_rel ?(eps = 1e-9) a b =
  let close x y = Float.abs (x -. y) <= eps *. (1.0 +. Float.abs x +. Float.abs y) in
  dim a = dim b
  && close a.c b.c
  && (let ok = ref true in
      for i = 0 to dim a - 1 do
        if not (close a.s.(i) b.s.(i)) then ok := false;
        for j = 0 to dim a - 1 do
          if not (close (Mat.get a.q i j) (Mat.get b.q i j)) then ok := false
        done
      done;
      !ok)

let count t = t.c
let sums t = t.s
let products t = t.q

(* Assemble the (n+1)x(n+1) symmetric moment matrix with an intercept slot
   at index 0: [[c, s^T], [s, Q]]. This is the "sigma" matrix the linear
   regression gradient is built from. *)
let moment_matrix t =
  let n = dim t in
  Mat.init (n + 1) (n + 1) (fun i j ->
      match (i, j) with
      | 0, 0 -> t.c
      | 0, j -> t.s.(j - 1)
      | i, 0 -> t.s.(i - 1)
      | i, j -> Mat.get t.q (i - 1) (j - 1))

(* Binary codec (checkpoint payloads): dimension, count, sums, then the
   product matrix row-major, every float by its exact bit pattern — a
   decoded triple is bit-identical to the encoded one, which the
   crash-recovery equivalence guarantee depends on. *)
let encode b t =
  let n = dim t in
  Relational.Codec.u32 b n;
  Relational.Codec.f64 b t.c;
  for i = 0 to n - 1 do
    Relational.Codec.f64 b t.s.(i)
  done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Relational.Codec.f64 b (Mat.get t.q i j)
    done
  done

let decode r =
  let n = Relational.Codec.read_u32 r in
  if n > 65536 then Relational.Codec.fail "covariance dim";
  let c = Relational.Codec.read_f64 r in
  let s = Vec.create n in
  for i = 0 to n - 1 do
    s.(i) <- Relational.Codec.read_f64 r
  done;
  let q = Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set q i j (Relational.Codec.read_f64 r)
    done
  done;
  { c; s; q }

let to_string t =
  Format.asprintf "(c=%g, s=%a)" t.c Vec.pp t.s

let pp ppf t =
  Format.fprintf ppf "c = %g@\ns = %a@\nQ =@\n%a" t.c Vec.pp t.s Mat.pp t.q

(* First-class semiring instance over a fixed dimension, for the generic
   factorised evaluator. *)
module Make (D : sig
  val n : int
end) : Sig.RING with type t = t = struct
  type nonrec t = t

  let zero = zero D.n
  let one = one D.n
  let add = add
  let mul = mul
  let neg = neg
  let equal = equal ~eps:1e-7
  let to_string = to_string
end

let make_ring n : (module Sig.RING with type t = t) =
  (module Make (struct
    let n = n
  end))
