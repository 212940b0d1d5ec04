(* Chow-Liu trees from the mutual-information aggregate batch (Figure 5's
   "Mutual inf." workload: model selection and Chow-Liu trees).

   The batch provides the total count, per-attribute marginal counts and
   pairwise joint counts; mutual information of each pair follows directly,
   and the Chow-Liu tree is the maximum spanning tree of the complete graph
   weighted by MI (Kruskal). *)

open Relational
module Spec = Aggregates.Spec

(* I(X; Y) = sum_{x,y} p(x,y) log (p(x,y) / (p(x) p(y))), from counts. *)
let mutual_information ~total ~(marginal_x : Spec.result) ~(marginal_y : Spec.result)
    ~(joint : Spec.result) ~x ~y =
  if total <= 0.0 then 0.0
  else
    List.fold_left
      (fun acc (assignment, c_xy) ->
        if c_xy <= 0.0 then acc
        else begin
          let vx = List.assoc x assignment and vy = List.assoc y assignment in
          let c_x = Spec.lookup marginal_x [ (x, vx) ] in
          let c_y = Spec.lookup marginal_y [ (y, vy) ] in
          if c_x <= 0.0 || c_y <= 0.0 then acc
          else
            let p_xy = c_xy /. total in
            acc +. (p_xy *. log (c_xy *. total /. (c_x *. c_y)))
        end)
      0.0 joint

type edge = { a : string; b : string; mi : float }

(* Pairwise MI for all attribute pairs, from the batch results. *)
let pairwise_mi (attrs : string list) (lookup : string -> Spec.result) : edge list =
  let total = Spec.scalar_result (lookup "count") in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  List.map
    (fun (x, y) ->
      let joint = lookup (Printf.sprintf "count|%s,%s" x y) in
      let marginal_x = lookup (Printf.sprintf "count|%s" x) in
      let marginal_y = lookup (Printf.sprintf "count|%s" y) in
      { a = x; b = y; mi = mutual_information ~total ~marginal_x ~marginal_y ~joint ~x ~y })
    (pairs attrs)

(* Kruskal maximum spanning tree over MI-weighted edges. *)
let maximum_spanning_tree (attrs : string list) (edges : edge list) : edge list =
  let parent = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace parent a a) attrs;
  let rec find a =
    let p = Hashtbl.find parent a in
    if p = a then a
    else begin
      let root = find p in
      Hashtbl.replace parent a root;
      root
    end
  in
  let sorted = List.sort (fun e1 e2 -> compare e2.mi e1.mi) edges in
  List.filter
    (fun e ->
      let ra = find e.a and rb = find e.b in
      if ra = rb then false
      else begin
        Hashtbl.replace parent ra rb;
        true
      end)
    sorted

(* End to end: synthesise the MI batch, run LMFAO, build the tree. *)
let tree_over_database (db : Database.t) (attrs : string list) : edge list =
  let lookup =
    Compile.Engine.lookup db (Aggregates.Batch.mutual_information attrs)
  in
  maximum_spanning_tree attrs (pairwise_mi attrs lookup)
