(* Classification trees from aggregate batches (Section 2.2: "For
   classification trees, the aggregates encode the entropy or the Gini index
   using group-by counts to compute value frequencies in the data matrix").

   Structure mirrors [Decision_tree], but the per-node batch consists of
   class-frequency counts: COUNT GROUP BY class (optionally under a
   threshold filter, or additionally grouped by a categorical feature), and
   splits are scored by weighted Gini impurity or entropy. *)

open Relational
module Spec = Aggregates.Spec
module Feature = Aggregates.Feature

type criterion = Gini | Entropy

type split = Decision_tree.split =
  | Threshold of string * float
  | Category of string * Value.t

type tree =
  | Leaf of { prediction : Value.t; counts : (Value.t * float) list }
  | Node of { split : split; left : tree; right : tree; count : float }

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

let dist_sub (a : dist) (b : dist) : dist =
  List.map
    (fun (v, c) ->
      let c' = match List.find_opt (fun (v', _) -> Value.equal v v') b with
        | Some (_, x) -> x
        | None -> 0.0
      in
      (v, c -. c'))
    a

(* re-key [d] on [base]'s classes (filtered results may miss classes) *)
let align (base : dist) (d : dist) : dist =
  List.map
    (fun (v, _) ->
      match List.find_opt (fun (v', _) -> Value.equal v v') d with
      | Some (_, c) -> (v, c)
      | None -> (v, 0.0))
    base

let dist_of_result ~class_attr (r : Spec.result) : dist =
  List.filter_map
    (fun (assignment, c) ->
      match List.assoc_opt class_attr assignment with
      | Some v -> Some (v, c)
      | None -> None)
    r

(* weighted impurity of a candidate split *)
let split_cost criterion (left : dist) (right : dist) =
  let nl = dist_total left and nr = dist_total right in
  let n = nl +. nr in
  if n <= 0.0 then 0.0
  else
    (nl /. n *. impurity criterion (List.map snd left))
    +. (nr /. n *. impurity criterion (List.map snd right))

let node_specs ~(path : Predicate.t) ~(class_attr : string) (f : Feature.t)
    (thresholds : (string * float list) list) : Spec.t list =
  let with_path extra =
    match (path, extra) with
    | Predicate.True, e -> e
    | p, Predicate.True -> p
    | p, e -> Predicate.And (p, e)
  in
  Spec.make ~filter:(with_path Predicate.True) ~id:"total" ~terms:[]
    ~group_by:[ class_attr ] ()
  :: List.concat_map
       (fun x ->
         let ths = Option.value ~default:[] (List.assoc_opt x thresholds) in
         List.mapi
           (fun j c ->
             Spec.make
               ~filter:(with_path (Predicate.Ge (x, Value.Float c)))
               ~id:(Printf.sprintf "ge|%s|%d" x j)
               ~terms:[] ~group_by:[ class_attr ] ())
           ths)
       f.continuous
  @ List.map
      (fun k ->
        Spec.make ~filter:(with_path Predicate.True)
          ~id:(Printf.sprintf "by|%s" k)
          ~terms:[] ~group_by:[ k; class_attr ] ())
      f.categorical

let rec grow ~params ~evaluate ~path ~class_attr (f : Feature.t) thresholds depth :
    tree =
  let lookup : string -> Spec.result =
    evaluate (node_specs ~path ~class_attr f thresholds)
  in
  let total = dist_of_result ~class_attr (lookup "total") in
  let n = dist_total total in
  let prediction =
    match List.sort (fun (_, a) (_, b) -> compare b a) total with
    | (v, _) :: _ -> v
    | [] -> Value.Null
  in
  let leaf () = Leaf { prediction; counts = total } in
  if depth >= params.max_depth || n < params.min_samples || List.length total <= 1
  then leaf ()
  else begin
    let node_impurity = impurity params.criterion (List.map snd total) in
    let candidates = ref [] in
    List.iter
      (fun x ->
        let ths = Option.value ~default:[] (List.assoc_opt x thresholds) in
        List.iteri
          (fun j c ->
            (* counts with x >= c, aligned on [total]'s classes *)
            let left =
              align total
                (dist_of_result ~class_attr (lookup (Printf.sprintf "ge|%s|%d" x j)))
            in
            let right = dist_sub total left in
            if dist_total left > 0.0 && dist_total right > 0.0 then
              candidates :=
                ( node_impurity -. split_cost params.criterion left right,
                  Threshold (x, c) )
                :: !candidates)
          ths)
      f.continuous;
    List.iter
      (fun k ->
        let grouped = lookup (Printf.sprintf "by|%s" k) in
        let k_values =
          List.sort_uniq Value.compare
            (List.filter_map
               (fun (assignment, _) -> List.assoc_opt k assignment)
               grouped)
        in
        List.iter
          (fun v ->
            let left =
              List.map
                (fun (cls, _) ->
                  ( cls,
                    Spec.lookup grouped
                      (List.sort compare [ (k, v); (class_attr, cls) ]) ))
                total
            in
            let right = dist_sub total left in
            if dist_total left > 0.0 && dist_total right > 0.0 then
              candidates :=
                ( node_impurity -. split_cost params.criterion left right,
                  Category (k, v) )
                :: !candidates)
          k_values)
      f.categorical;
    let describe = function
      | Threshold (x, c) -> Printf.sprintf "t|%s|%g" x c
      | Category (k, v) -> Printf.sprintf "c|%s|%s" k (Value.to_string v)
    in
    match
      List.sort
        (fun (g1, s1) (g2, s2) ->
          match compare g2 g1 with 0 -> compare (describe s1) (describe s2) | c -> c)
        !candidates
    with
    | (gain, split) :: _ when gain > params.min_gain ->
        let left_pred, right_pred =
          match split with
          | Threshold (x, c) ->
              (Predicate.Ge (x, Value.Float c), Predicate.Lt (x, Value.Float c))
          | Category (k, v) -> (Predicate.Eq (k, v), Predicate.Not (Predicate.Eq (k, v)))
        in
        let extend p =
          match path with Predicate.True -> p | _ -> Predicate.And (path, p)
        in
        Node
          {
            split;
            left = grow ~params ~evaluate ~path:(extend left_pred) ~class_attr f thresholds (depth + 1);
            right = grow ~params ~evaluate ~path:(extend right_pred) ~class_attr f thresholds (depth + 1);
            count = n;
          }
    | _ -> leaf ()
  end

let train ?(params = default_params) (db : Database.t) ~(class_attr : string)
    (f : Feature.t) : tree =
  let thresholds = Decision_tree.thresholds_of_db db f in
  let evaluate specs =
    Compile.Engine.lookup db { Aggregates.Batch.name = "class-node"; aggregates = specs }
  in
  grow ~params ~evaluate ~path:Predicate.True ~class_attr f thresholds 0

let train_flat ?(params = default_params) (join : Relation.t) ~(class_attr : string)
    (f : Feature.t) ~thresholds : tree =
  let evaluate specs =
    let results = List.map (fun s -> (s.Spec.id, Spec.eval_flat join s)) specs in
    fun id ->
      match List.assoc_opt id results with
      | Some r -> r
      | None -> invalid_arg ("Classification_tree: missing aggregate " ^ id)
  in
  grow ~params ~evaluate ~path:Predicate.True ~class_attr f thresholds 0

let rec predict tree (get : string -> Value.t) =
  match tree with
  | Leaf { prediction; _ } -> prediction
  | Node { split; left; right; _ } ->
      let goes_left =
        match split with
        | Threshold (x, c) -> Value.to_float (get x) >= c
        | Category (k, v) -> Value.equal (get k) v
      in
      predict (if goes_left then left else right) get

let accuracy tree (rel : Relation.t) ~class_attr =
  let schema = Relation.schema rel in
  let n = Relation.cardinality rel in
  if n = 0 then 1.0
  else begin
    let col_of = Hashtbl.create 16 in
    List.iter
      (fun (a : Schema.attr) ->
        Hashtbl.replace col_of a.name
          (Relation.column rel (Schema.position schema a.name)))
      (Schema.attrs schema);
    let row = ref 0 in
    let get a = Column.get (Hashtbl.find col_of a) !row in
    let correct = ref 0 in
    for i = 0 to n - 1 do
      row := i;
      if Value.equal (predict tree get) (get class_attr) then incr correct
    done;
    float_of_int !correct /. float_of_int n
  end

let rec size = function
  | Leaf _ -> 1
  | Node { left; right; _ } -> 1 + size left + size right
