(* Monomials over continuous features and the degree-2 basis shared by
   polynomial regression and factorisation machines (Section 2.1: "Similar
   aggregates can be derived for polynomial regression models").

   The quadratic basis phi(x) = (1, x_i ..., x_i * x_j ...) needs the moment
   matrix E[phi phi^T], whose entries are SUM-PRODUCT aggregates of degree
   up to 4 — still plain [Spec] terms (attribute powers), so the same LMFAO
   engine computes the whole batch over the join without materialising it:
   products across relations factorise through the join tree.

   [moment_of_*] package that matrix as a [Moment.t] whose columns are the
   basis monomials (the constant named "intercept") plus the response, so
   the same split/standardise/solve machinery as linear regression applies
   verbatim in basis space. *)

open Relational
module Spec = Aggregates.Spec
open Util

(* basis monomials over features xs: exponent vectors of total degree <= 2 *)
type t = (string * int) list (* sorted, powers >= 1; [] = 1 *)

let basis (features : string list) : t list =
  let singles = List.map (fun x -> [ (x, 1) ]) features in
  let rec pairs = function
    | [] -> []
    | x :: rest ->
        [ (x, 2) ]
        :: List.map (fun y -> List.sort compare [ (x, 1); (y, 1) ]) rest
        @ pairs rest
  in
  ([] :: singles) @ pairs features

let name (m : t) =
  match m with
  | [] -> "1"
  | ts -> String.concat "*" (List.map (fun (a, p) -> Printf.sprintf "%s^%d" a p) ts)

(* product of two monomials: merge exponents *)
let mul (a : t) (b : t) : t =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (x, p) ->
      Hashtbl.replace table x (p + Option.value ~default:0 (Hashtbl.find_opt table x)))
    (a @ b);
  List.sort compare (Hashtbl.fold (fun x p acc -> (x, p) :: acc) table [])

let eval (m : t) (get : string -> float) =
  List.fold_left
    (fun acc (x, p) ->
      let v = get x in
      let rec pow acc k = if k = 0 then acc else pow (acc *. v) (k - 1) in
      pow acc p)
    1.0 m

(* the aggregate batch: SUM of every pairwise product of basis monomials
   (and of each monomial times the response) *)
let batch_for (features : string list) ~(response : string) =
  let b = basis features in
  let specs = Hashtbl.create 64 in
  let add terms =
    let id = name terms in
    if not (Hashtbl.mem specs id) then
      Hashtbl.replace specs id (Spec.make ~id ~terms ~group_by:[] ())
  in
  List.iteri
    (fun i mi ->
      List.iteri
        (fun j mj -> if j >= i then add (mul mi mj))
        b;
      add (mul mi [ (response, 1) ]))
    b;
  add [ (response, 2) ];
  ( { Aggregates.Batch.name = "polyreg";
      aggregates = Hashtbl.fold (fun _ s acc -> s :: acc) specs [] },
    b )

(* Column names of the basis-space moment matrix: basis monomials (the
   constant renamed "intercept" so [Linreg.standardise]'s invariant holds)
   followed by the response attribute itself. *)
let column_name (m : t) = match m with [] -> "intercept" | _ -> name m

let moment_of_scalars (b : t list) ~(response : string)
    (scalar : t -> float) : Moment.t =
  let barr = Array.of_list b in
  let dim = Array.length barr in
  let columns =
    Array.append (Array.map column_name barr) [| response |]
  in
  let index = Hashtbl.create (dim + 1) in
  Array.iteri (fun i c -> Hashtbl.replace index c i) columns;
  let matrix = Mat.create (dim + 1) (dim + 1) in
  let set_sym i j v =
    Mat.set matrix i j v;
    Mat.set matrix j i v
  in
  for i = 0 to dim - 1 do
    for j = i to dim - 1 do
      set_sym i j (scalar (mul barr.(i) barr.(j)))
    done;
    set_sym i dim (scalar (mul barr.(i) [ (response, 1) ]))
  done;
  Mat.set matrix dim dim (scalar [ (response, 2) ]);
  {
    Moment.columns;
    index;
    matrix;
    count = scalar [];
    response_col = Some dim;
  }

(* Basis-space moments over the join, one LMFAO batch (degree-4 SUM-PRODUCT
   aggregates). Returns the moment plus the batch size for timing reports. *)
let moment_of_database (db : Database.t) ~(features : string list)
    ~(response : string) : Moment.t * int =
  let batch, b = batch_for features ~response in
  let find = Compile.Engine.lookup db batch in
  let scalar terms = Spec.scalar_result (find (name terms)) in
  (moment_of_scalars b ~response scalar, Aggregates.Batch.size batch)

(* The same moments accumulated over explicit rows (the structure-agnostic
   reference, and the path for data given as matrices). *)
let moment_of_rows ~(columns : string array) ~(features : string list)
    ~(response : string) (x : float array array) (y : float array) : Moment.t =
  let pos = Hashtbl.create (Array.length columns) in
  Array.iteri (fun i c -> Hashtbl.replace pos c i) columns;
  let b = basis features in
  let barr = Array.of_list b in
  let dim = Array.length barr in
  (* the distinct monomials the matrix needs (pair products collide: e.g.
     1 * x^2 and x * x are the same SUM, accumulated once) *)
  let needed = Hashtbl.create 64 in
  let note terms = Hashtbl.replace needed (name terms) terms in
  for i = 0 to dim - 1 do
    for j = i to dim - 1 do
      note (mul barr.(i) barr.(j))
    done;
    note (mul barr.(i) [ (response, 1) ])
  done;
  note [ (response, 2) ];
  let totals = Hashtbl.create (Hashtbl.length needed) in
  Array.iteri
    (fun r row ->
      let get a =
        if a = response then y.(r)
        else
          match Hashtbl.find_opt pos a with
          | Some i -> row.(i)
          | None -> invalid_arg ("Monomial.moment_of_rows: unknown feature " ^ a)
      in
      Hashtbl.iter
        (fun id terms ->
          Hashtbl.replace totals id
            (eval terms get
            +. Option.value ~default:0.0 (Hashtbl.find_opt totals id)))
        needed)
    x;
  let scalar terms =
    Option.value ~default:0.0 (Hashtbl.find_opt totals (name terms))
  in
  moment_of_scalars b ~response scalar
