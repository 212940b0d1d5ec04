(* CART regression trees trained from aggregate batches (Section 2.2).

   A side of a split is the response's variance triple SUM(1), SUM(y),
   SUM(y^2) under the side's filter; a split scores the reduction in the
   sum of squared errors around the mean. [Cart] grows the tree. *)

open Relational
module Spec = Aggregates.Spec
module Feature = Aggregates.Feature

type split = Cart.split =
  | Threshold of string * float
  | Category of string * Value.t

type tree =
  | Leaf of { prediction : float; count : float }
  | Node of { split : split; left : tree; right : tree; count : float }

type params = { max_depth : int; min_samples : float; min_gain : float }

let default_params = { max_depth = 4; min_samples = 10.0; min_gain = 1e-6 }

(* sum of squared errors around the mean, from the (count, sum, sum2) triple *)
let sse (count, sum, sum2) = if count <= 0.0 then 0.0 else sum2 -. (sum *. sum /. count)

let kind (f : Feature.t) : (float * float * float, tree) Cart.kind =
  let y = Option.get f.response in
  let scalar lookup id = Spec.scalar_result (lookup id) in
  {
    side =
      (fun ~id ~filter ~group_by ->
        [
          Spec.make ~filter ~id:(id ^ "#n") ~terms:[] ~group_by ();
          Spec.make ~filter ~id:(id ^ "#s") ~terms:[ (y, 1) ] ~group_by ();
          Spec.make ~filter ~id:(id ^ "#s2") ~terms:[ (y, 2) ] ~group_by ();
        ]);
    read =
      (fun _ lookup id ->
        (scalar lookup (id ^ "#n"), scalar lookup (id ^ "#s"), scalar lookup (id ^ "#s2")));
    grouped =
      (fun _ lookup ~id _ ->
        let sums = lookup (id ^ "#s") and sums2 = lookup (id ^ "#s2") in
        List.filter_map
          (fun (assignment, n) ->
            match assignment with
            | [ (_, v) ] ->
                Some (v, (n, Spec.lookup sums assignment, Spec.lookup sums2 assignment))
            | _ -> None)
          (lookup (id ^ "#n")));
    count = (fun (n, _, _) -> n);
    subtract = (fun (n, s, s2) (ln, ls, ls2) -> (n -. ln, s -. ls, s2 -. ls2));
    gain =
      (fun node ->
        let total = sse node in
        fun l r -> total -. sse l -. sse r);
    splittable = (fun _ -> true);
    leaf =
      (fun (n, s, _) -> Leaf { prediction = (if n > 0.0 then s /. n else 0.0); count = n });
    node = (fun split left right count -> Node { split; left; right; count });
  }

let node_specs ~path f thresholds = Cart.node_specs (kind f) ~path f thresholds

let train ?(params = default_params) (db : Database.t) (f : Feature.t) : tree =
  Cart.train (kind f) ~max_depth:params.max_depth ~min_samples:params.min_samples
    ~min_gain:params.min_gain db f

let train_flat ?(params = default_params) (join : Relation.t) (f : Feature.t) ~thresholds
    : tree =
  Cart.train_flat (kind f) ~max_depth:params.max_depth ~min_samples:params.min_samples
    ~min_gain:params.min_gain join f ~thresholds

let rec predict tree (get : string -> Value.t) =
  match tree with
  | Leaf { prediction; _ } -> prediction
  | Node { split; left; right; _ } ->
      predict (if Cart.goes_left split get then left else right) get

let rmse_on tree (rel : Relation.t) ~response =
  let n = Relation.cardinality rel in
  if n = 0 then 0.0
  else begin
    let se = ref 0.0 in
    for i = 0 to n - 1 do
      let get = Relation.value_at rel i in
      let err = predict tree get -. Value.to_float (get response) in
      se := !se +. (err *. err)
    done;
    sqrt (!se /. float_of_int n)
  end

let rec depth = function
  | Leaf _ -> 0
  | Node { left; right; _ } -> 1 + Stdlib.max (depth left) (depth right)

let rec size = function
  | Leaf _ -> 1
  | Node { left; right; _ } -> 1 + size left + size right

let rec pp ?(indent = 0) ppf tree =
  let pad = String.make (indent * 2) ' ' in
  match tree with
  | Leaf { prediction; count } ->
      Format.fprintf ppf "%spredict %.3f (n=%g)@\n" pad prediction count
  | Node { split; left; right; count } ->
      (match split with
      | Threshold (x, c) -> Format.fprintf ppf "%s%s >= %g? (n=%g)@\n" pad x c count
      | Category (k, v) ->
          Format.fprintf ppf "%s%s = %s? (n=%g)@\n" pad k (Value.to_string v) count);
      pp ~indent:(indent + 1) ppf left;
      pp ~indent:(indent + 1) ppf right
