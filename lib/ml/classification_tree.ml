(* Classification trees from aggregate batches (Section 2.2: "For
   classification trees, the aggregates encode the entropy or the Gini index
   using group-by counts to compute value frequencies in the data matrix").

   A side of a split is COUNT GROUP BY class under the side's filter (the
   side [by|k] is additionally grouped by the categorical [k]); a split
   scores the node's impurity minus the weighted impurity of its sides.
   [Cart] grows the tree. *)

open Relational
module Spec = Aggregates.Spec
module Feature = Aggregates.Feature

type criterion = Gini | Entropy

type tree =
  | Leaf of { prediction : Value.t; counts : (Value.t * float) list }
  | Node of { split : Cart.split; left : tree; right : tree; count : float }

type params = {
  max_depth : int;
  min_samples : float;
  min_gain : float;
  criterion : criterion;
}

let default_params =
  { max_depth = 4; min_samples = 10.0; min_gain = 1e-6; criterion = Gini }

(* class distribution -> impurity *)
let impurity criterion (counts : float list) =
  let total = List.fold_left ( +. ) 0.0 counts in
  if total <= 0.0 then 0.0
  else
    match criterion with
    | Gini ->
        1.0
        -. List.fold_left
             (fun acc c ->
               let p = c /. total in
               acc +. (p *. p))
             0.0 counts
    | Entropy ->
        -.List.fold_left
            (fun acc c ->
              if c <= 0.0 then acc
              else
                let p = c /. total in
                acc +. (p *. log p))
            0.0 counts

(* class counts as an assoc over class values *)
type dist = (Value.t * float) list

let dist_total (d : dist) = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 d

let count_of v (d : dist) =
  match List.find_opt (fun (v', _) -> Value.equal v v') d with
  | Some (_, c) -> c
  | None -> 0.0

let dist_sub (a : dist) (b : dist) : dist = List.map (fun (v, c) -> (v, c -. count_of v b)) a

(* re-key [d] on [base]'s classes (filtered results may miss classes) *)
let align (base : dist) (d : dist) : dist = List.map (fun (v, _) -> (v, count_of v d)) base

(* weighted impurity of a candidate split *)
let split_cost criterion (left : dist) (right : dist) =
  let nl = dist_total left and nr = dist_total right in
  let n = nl +. nr in
  if n <= 0.0 then 0.0
  else
    (nl /. n *. impurity criterion (List.map snd left))
    +. (nr /. n *. impurity criterion (List.map snd right))

(* the most frequent class; ties go to the smallest class, so the answer
   does not depend on the order an engine emits its groups in *)
let majority (d : dist) =
  match
    List.sort
      (fun (v1, a) (v2, b) -> match compare b a with 0 -> Value.compare v1 v2 | c -> c)
      d
  with
  | (v, _) :: _ -> v
  | [] -> Value.Null

let kind ~class_attr criterion : (dist, tree) Cart.kind =
  let dist_of_result (r : Spec.result) : dist =
    List.filter_map
      (fun (assignment, c) ->
        Option.map (fun v -> (v, c)) (List.assoc_opt class_attr assignment))
      r
  in
  {
    side =
      (fun ~id ~filter ~group_by ->
        [ Spec.make ~filter ~id ~terms:[] ~group_by:(group_by @ [ class_attr ]) () ]);
    read =
      (fun node lookup id ->
        let d = dist_of_result (lookup id) in
        match node with Some base -> align base d | None -> d);
    grouped =
      (fun node lookup ~id k ->
        let grouped = lookup id in
        List.sort_uniq Value.compare
          (List.filter_map (fun (assignment, _) -> List.assoc_opt k assignment) grouped)
        |> List.map (fun v ->
               ( v,
                 List.map
                   (fun (cls, _) ->
                     ( cls,
                       Spec.lookup grouped (List.sort compare [ (k, v); (class_attr, cls) ])
                     ))
                   node )));
    count = dist_total;
    subtract = dist_sub;
    gain =
      (fun node ->
        let node_impurity = impurity criterion (List.map snd node) in
        fun l r -> node_impurity -. split_cost criterion l r);
    splittable = (fun d -> List.length d > 1);
    leaf = (fun counts -> Leaf { prediction = majority counts; counts });
    node = (fun split left right count -> Node { split; left; right; count });
  }

let node_specs ~path ~class_attr f thresholds =
  Cart.node_specs (kind ~class_attr Gini) ~path f thresholds

let train ?(params = default_params) (db : Database.t) ~(class_attr : string)
    (f : Feature.t) : tree =
  Cart.train (kind ~class_attr params.criterion) ~max_depth:params.max_depth
    ~min_samples:params.min_samples ~min_gain:params.min_gain db f

let train_flat ?(params = default_params) (join : Relation.t) ~(class_attr : string)
    (f : Feature.t) ~thresholds : tree =
  Cart.train_flat (kind ~class_attr params.criterion) ~max_depth:params.max_depth
    ~min_samples:params.min_samples ~min_gain:params.min_gain join f ~thresholds

let rec predict tree (get : string -> Value.t) =
  match tree with
  | Leaf { prediction; _ } -> prediction
  | Node { split; left; right; _ } ->
      predict (if Cart.goes_left split get then left else right) get

let accuracy tree (rel : Relation.t) ~class_attr =
  let n = Relation.cardinality rel in
  if n = 0 then 1.0
  else begin
    let correct = ref 0 in
    for i = 0 to n - 1 do
      let get = Relation.value_at rel i in
      if Value.equal (predict tree get) (get class_attr) then incr correct
    done;
    float_of_int !correct /. float_of_int n
  end

let rec size = function
  | Leaf _ -> 1
  | Node { left; right; _ } -> 1 + size left + size right
