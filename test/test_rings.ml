(* Tests for the (semi)ring layer: ring axioms as qcheck properties for every
   instance, and the covariance ring against direct recomputation (including
   the worked example of Figure 10). *)

module I = Rings.Instances
module Cov = Rings.Covariance
open Util

(* Generic axiom properties for a semiring with a generator. *)
let semiring_axioms (type a) name (module S : Rings.Sig.SEMIRING with type t = a)
    (gen : a QCheck2.Gen.t) =
  let open QCheck2 in
  [
    Test.make ~count:100 ~name:(name ^ ": + commutative") (Gen.pair gen gen)
      (fun (a, b) -> S.equal (S.add a b) (S.add b a));
    Test.make ~count:100 ~name:(name ^ ": + associative") (Gen.triple gen gen gen)
      (fun (a, b, c) -> S.equal (S.add (S.add a b) c) (S.add a (S.add b c)));
    Test.make ~count:100 ~name:(name ^ ": 0 neutral for +") gen (fun a ->
        S.equal (S.add S.zero a) a && S.equal (S.add a S.zero) a);
    Test.make ~count:100 ~name:(name ^ ": * associative") (Gen.triple gen gen gen)
      (fun (a, b, c) -> S.equal (S.mul (S.mul a b) c) (S.mul a (S.mul b c)));
    Test.make ~count:100 ~name:(name ^ ": 1 neutral for *") gen (fun a ->
        S.equal (S.mul S.one a) a && S.equal (S.mul a S.one) a);
    Test.make ~count:100 ~name:(name ^ ": left distributivity")
      (Gen.triple gen gen gen) (fun (a, b, c) ->
        S.equal (S.mul a (S.add b c)) (S.add (S.mul a b) (S.mul a c)));
    Test.make ~count:100 ~name:(name ^ ": right distributivity")
      (Gen.triple gen gen gen) (fun (a, b, c) ->
        S.equal (S.mul (S.add a b) c) (S.add (S.mul a c) (S.mul b c)));
  ]

let ring_axioms (type a) name (module R : Rings.Sig.RING with type t = a)
    (gen : a QCheck2.Gen.t) =
  QCheck2.Test.make ~count:100 ~name:(name ^ ": additive inverse") gen (fun a ->
      R.equal (R.add a (R.neg a)) R.zero)
  :: semiring_axioms name (module R) gen

let small_int_gen = QCheck2.Gen.int_range (-50) 50
let nat_gen = QCheck2.Gen.int_range 0 50
let bool_gen = QCheck2.Gen.bool

(* Small integral floats so float addition is exactly associative. *)
let float_gen = QCheck2.Gen.map float_of_int (QCheck2.Gen.int_range (-20) 20)

(* --- covariance ring --- *)

let dim = 3

module CovRing = Cov.Make (struct
  let n = dim
end)

let cov_gen =
  (* triples built from random tuples: closed under the ring operations used *)
  QCheck2.Gen.(
    let tuple = array_size (return dim) (map float_of_int (int_range (-5) 5)) in
    let base =
      oneof
        [
          map Cov.of_tuple tuple;
          map (fun (i, x) -> Cov.lift dim (abs i mod dim) (float_of_int x))
            (pair small_int nat_gen);
          return (Cov.zero dim);
          return (Cov.one dim);
        ]
    in
    map
      (fun (a, b) -> Cov.add a b)
      (pair base base))

(* the covariance triple computed naively from a list of feature tuples *)
let cov_of_rows rows =
  let acc = Cov.Acc.create dim in
  List.iter (fun r -> Cov.Acc.add_tuple acc r) rows;
  Cov.Acc.freeze acc

let test_of_tuple_matches_lift_product () =
  (* product of per-feature lifts = of_tuple *)
  let xs = [| 2.0; -3.0; 5.0 |] in
  let lifted =
    Array.to_list (Array.mapi (fun i x -> Cov.lift dim i x) xs)
    |> List.fold_left Cov.mul (Cov.one dim)
  in
  Alcotest.(check bool) "lift product = of_tuple" true
    (Cov.equal lifted (Cov.of_tuple xs))

let test_add_is_union () =
  (* adding triples of two datasets = triple of their union *)
  let rows1 = [ [| 1.0; 2.0; 3.0 |]; [| 0.0; 1.0; -1.0 |] ] in
  let rows2 = [ [| 4.0; 0.0; 2.0 |] ] in
  let got = Cov.add (cov_of_rows rows1) (cov_of_rows rows2) in
  Alcotest.(check bool) "union" true (Cov.equal got (cov_of_rows (rows1 @ rows2)))

let test_mul_is_cartesian_product () =
  (* The ring product of the triples of two datasets over DISJOINT feature
     sets equals the triple of their Cartesian product. Features 0 in set A;
     features 1,2 in set B (unused features are zero). *)
  let a_rows = [ [| 2.0; 0.0; 0.0 |]; [| 3.0; 0.0; 0.0 |] ] in
  let b_rows = [ [| 0.0; 1.0; 4.0 |]; [| 0.0; 5.0; 6.0 |]; [| 0.0; 7.0; 8.0 |] ] in
  let product_rows =
    List.concat_map
      (fun a -> List.map (fun b -> Array.mapi (fun i x -> x +. b.(i)) a) b_rows)
      a_rows
  in
  (* triples restricted to each side use lifts of only their own features *)
  let side rows feats =
    List.fold_left
      (fun acc r ->
        Cov.add acc
          (List.fold_left
             (fun t i -> Cov.mul t (Cov.lift dim i r.(i)))
             (Cov.one dim) feats))
      (Cov.zero dim) rows
  in
  let got = Cov.mul (side a_rows [ 0 ]) (side b_rows [ 1; 2 ]) in
  Alcotest.(check bool) "cartesian" true
    (Cov.equal got (cov_of_rows product_rows))

(* Figure 10: the factorised fragment for dish = burger.
   Items side: patty 6, bun 2, onion 2 -> (3, 10, 0)
   Orders side: (Monday, Elise), (Friday, Elise) -> (2, 0, 0)
   product -> (6, 20, 0); with the dish lift contributing price*dish terms. *)
let test_figure10_numbers () =
  (* 2-dimensional ring: feature 0 = price, feature 1 = f(dish) one-hot-ish *)
  let d = 2 in
  let lift_price x = Cov.lift d 0 x in
  let items = [ 6.0; 2.0; 2.0 ] in
  let items_triple =
    List.fold_left (fun acc p -> Cov.add acc (lift_price p)) (Cov.zero d) items
  in
  Alcotest.(check (float 1e-9)) "items count" 3.0 (Cov.count items_triple);
  Alcotest.(check (float 1e-9)) "items sum" 10.0 (Vec.get (Cov.sums items_triple) 0);
  let orders_triple = Cov.smul 2.0 (Cov.one d) in
  let burger_subtree = Cov.mul orders_triple items_triple in
  Alcotest.(check (float 1e-9)) "count 6" 6.0 (Cov.count burger_subtree);
  Alcotest.(check (float 1e-9)) "sum 20" 20.0 (Vec.get (Cov.sums burger_subtree) 0);
  (* multiply by the lift of f(burger) = 1 on feature 1 *)
  let with_dish = Cov.mul burger_subtree (Cov.lift d 1 1.0) in
  (* SUM(price * dish) entry (0,1) should be 20 * f(burger) = 20 *)
  Alcotest.(check (float 1e-9)) "price*dish = 20" 20.0
    (Mat.get (Cov.products with_dish) 0 1)

let test_moment_matrix_layout () =
  let t = cov_of_rows [ [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] ] in
  let m = Cov.moment_matrix t in
  Alcotest.(check (float 1e-9)) "count slot" 2.0 (Mat.get m 0 0);
  Alcotest.(check (float 1e-9)) "sum x0" 5.0 (Mat.get m 0 1);
  Alcotest.(check (float 1e-9)) "x0*x1" (2.0 +. 20.0) (Mat.get m 1 2);
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric m)

let test_acc_matches_functional () =
  let rng = Prng.create 99 in
  let rows =
    List.init 50 (fun _ -> Array.init dim (fun _ -> Prng.float_range rng (-2.0) 2.0))
  in
  let functional =
    List.fold_left (fun acc r -> Cov.add acc (Cov.of_tuple r)) (Cov.zero dim) rows
  in
  Alcotest.(check bool) "acc = fold" true
    (Cov.equal ~eps:1e-6 functional (cov_of_rows rows))

(* ---- the dimension-agnostic payload used by F-IVM ---- *)
module PD = Fivm.Payload.Cov_dyn

let test_cov_dyn_symbolic_identities () =
  let e = `Elem (Cov.of_tuple [| 1.0; 2.0 |]) in
  Alcotest.(check bool) "0 + x = x" true (PD.equal (PD.add PD.zero e) e);
  Alcotest.(check bool) "1 * x = x" true (PD.equal (PD.mul PD.one e) e);
  Alcotest.(check bool) "0 * x = 0" true (PD.equal (PD.mul PD.zero e) PD.zero);
  Alcotest.(check bool) "x + (-x) = 0" true (PD.equal (PD.add e (PD.neg e)) PD.zero);
  Alcotest.(check bool) "smul 3" true
    (PD.equal (PD.smul 3 e) (PD.add e (PD.add e e)))

let test_cov_dyn_rejects_dimensionless () =
  Alcotest.(check bool) "One+One rejected" true
    (match PD.add PD.one PD.one with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "neg One rejected" true
    (match PD.neg PD.one with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cov_elem () =
  Alcotest.(check bool) "zero" true
    (Cov.equal (Fivm.Payload.cov_elem 2 `Zero) (Cov.zero 2));
  Alcotest.(check bool) "one" true
    (Cov.equal (Fivm.Payload.cov_elem 2 `One) (Cov.one 2))

(* --- covariance kernels: bit equality with the element-wise formulas --- *)

(* Reference copies of the element-wise definitions (each coordinate's
   expression and association order), read through [Mat.get]/[Mat.init]. *)
module Reference = struct
  let add (a : Cov.t) (b : Cov.t) : Cov.t =
    let n = Cov.dim a in
    {
      c = a.c +. b.c;
      s = Array.init n (fun i -> a.s.(i) +. b.s.(i));
      q = Util.Mat.init n n (fun i j -> Util.Mat.get a.q i j +. Util.Mat.get b.q i j);
    }

  let smul k (a : Cov.t) : Cov.t =
    let n = Cov.dim a in
    {
      c = k *. a.c;
      s = Array.init n (fun i -> k *. a.s.(i));
      q = Util.Mat.init n n (fun i j -> k *. Util.Mat.get a.q i j);
    }

  let neg (a : Cov.t) : Cov.t =
    let n = Cov.dim a in
    {
      c = -.a.c;
      s = Array.init n (fun i -> (-1.0) *. a.s.(i));
      q = Util.Mat.init n n (fun i j -> (-1.0) *. Util.Mat.get a.q i j);
    }

  let mul (a : Cov.t) (b : Cov.t) : Cov.t =
    let n = Cov.dim a in
    {
      c = a.c *. b.c;
      s = Array.init n (fun i -> (b.c *. a.s.(i)) +. (a.c *. b.s.(i)));
      q =
        Util.Mat.init n n (fun i j ->
            (b.c *. Util.Mat.get a.q i j)
            +. (a.c *. Util.Mat.get b.q i j)
            +. (a.s.(i) *. b.s.(j))
            +. (b.s.(i) *. a.s.(j)));
    }

  let is_zero (a : Cov.t) =
    a.c = 0.0
    && Array.for_all (fun x -> x = 0.0) a.s
    && Array.for_all (fun r -> Array.for_all (fun x -> x = 0.0) r) (Util.Mat.to_arrays a.q)
end

let same x y = Oracle.covariance x y = Ok ()

(* Signed zeros, subnormals, ordinary and huge magnitudes (products of huge
   values overflow to infinity identically on both sides). *)
let kernel_float =
  QCheck2.Gen.(
    oneof
      [
        return 0.0;
        return (-0.0);
        return 5e-324;
        return (-5e-324);
        map (fun x -> ldexp x (-1030)) (float_range (-1.0) 1.0);
        float_range (-1e3) 1e3;
        map float_of_int (int_range (-5) 5);
        map (fun x -> x *. 1e300) (float_range (-1.0) 1.0);
      ])

let kernel_triple n =
  QCheck2.Gen.(
    map
      (fun (c, s, q) : Cov.t ->
        { c; s; q = Util.Mat.init n n (fun i j -> q.((i * n) + j)) })
      (triple kernel_float (array_repeat n kernel_float)
         (array_repeat (n * n) kernel_float)))

let kernel_case =
  QCheck2.Gen.(
    int_range 1 12 >>= fun n ->
    triple (kernel_triple n) (kernel_triple n) kernel_float)

let kernels_bit_equal =
  QCheck2.Test.make ~count:300 ~name:"kernels = element-wise formulas, bit for bit"
    kernel_case (fun (a, b, k) ->
      same (Cov.add a b) (Reference.add a b)
      && same (Cov.mul a b) (Reference.mul a b)
      && same (Cov.smul k a) (Reference.smul k a)
      && same (Cov.neg a) (Reference.neg a)
      && Cov.is_zero a = Reference.is_zero a
      && Cov.is_zero (Cov.smul 0.0 a) = Reference.is_zero (Cov.smul 0.0 a))

let add_in_place_equals_add =
  QCheck2.Test.make ~count:300
    ~name:"add_in_place = add, right operand untouched" kernel_case
    (fun (a, b, _) ->
      let acc = Cov.copy a and b_before = Cov.copy b in
      Cov.add_in_place acc b;
      let via_payload = Fivm.Payload.Cov_dyn.add_into (`Elem (Cov.copy a)) (`Elem b) in
      same acc (Cov.add a b)
      && (match via_payload with `Elem e -> same e acc | _ -> false)
      && same b b_before)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "rings"
    [
      ("bool-semiring", List.map qcheck (semiring_axioms "bool" (module I.Bool) bool_gen));
      ("nat-semiring", List.map qcheck (semiring_axioms "nat" (module I.Nat) nat_gen));
      ("Z-ring", List.map qcheck (ring_axioms "Z" (module I.Z) small_int_gen));
      ("R-ring", List.map qcheck (ring_axioms "R" (module I.R) float_gen));
      ( "min-plus",
        List.map qcheck (semiring_axioms "min-plus" (module I.Min_plus) float_gen) );
      ( "max-plus",
        List.map qcheck (semiring_axioms "max-plus" (module I.Max_plus) float_gen) );
      ( "covariance-ring-axioms",
        List.map qcheck (ring_axioms "cov" (module CovRing) cov_gen) );
      ( "cov-dyn-payload",
        [
          Alcotest.test_case "symbolic identities" `Quick test_cov_dyn_symbolic_identities;
          Alcotest.test_case "dimensionless rejected" `Quick
            test_cov_dyn_rejects_dimensionless;
          Alcotest.test_case "cov_elem" `Quick test_cov_elem;
        ] );
      ( "covariance-kernels",
        [ qcheck kernels_bit_equal; qcheck add_in_place_equals_add ] );
      ( "covariance-ring-semantics",
        [
          Alcotest.test_case "lift product = of_tuple" `Quick
            test_of_tuple_matches_lift_product;
          Alcotest.test_case "add = dataset union" `Quick test_add_is_union;
          Alcotest.test_case "mul = cartesian product" `Quick
            test_mul_is_cartesian_product;
          Alcotest.test_case "Figure 10 numbers" `Quick test_figure10_numbers;
          Alcotest.test_case "moment matrix layout" `Quick test_moment_matrix_layout;
          Alcotest.test_case "accumulator = functional fold" `Quick
            test_acc_matches_functional;
        ] );
    ]
