(* The one CART grower (Section 2.2). Every split decision needs, per
   candidate (feature, condition), a statistic of each side under the
   node's path filter conjoined with the condition. One batch per tree node
   answers ALL candidate splits at once: a [total] side, one filtered side
   per continuous threshold, and one side grouped by each categorical
   feature for its one-vs-rest splits. The right side of a split is the
   node minus its left side. Regression trees read variance triples and
   score SSE reduction; classification trees read class counts and score
   Gini or entropy — that is all a [kind] supplies. *)

open Relational
module Spec = Aggregates.Spec
module Feature = Aggregates.Feature

type split =
  | Threshold of string * float (* goes left when attr >= threshold *)
  | Category of string * Value.t (* goes left when attr = value *)

let goes_left split (get : string -> Value.t) =
  match split with
  | Threshold (x, c) -> Value.to_float (get x) >= c
  | Category (k, v) -> Value.equal (get k) v

type ('stat, 'tree) kind = {
  side : id:string -> filter:Predicate.t -> group_by:string list -> Spec.t list;
  read : 'stat option -> (string -> Spec.result) -> string -> 'stat;
  grouped :
    'stat -> (string -> Spec.result) -> id:string -> string -> (Value.t * 'stat) list;
  count : 'stat -> float;
  subtract : 'stat -> 'stat -> 'stat;
  gain : 'stat -> 'stat -> 'stat -> float;
  splittable : 'stat -> bool;
  leaf : 'stat -> 'tree;
  node : split -> 'tree -> 'tree -> float -> 'tree;
}

let extend path p =
  match path with Predicate.True -> p | _ -> Predicate.And (path, p)

let thresholds_of x thresholds = Option.value ~default:[] (List.assoc_opt x thresholds)
let ge_id x j = Printf.sprintf "ge|%s|%d" x j
let by_id k = "by|" ^ k

let node_specs kind ~(path : Predicate.t) (f : Feature.t) thresholds =
  kind.side ~id:"total" ~filter:path ~group_by:[]
  @ List.concat_map
      (fun x ->
        List.concat
          (List.mapi
             (fun j c ->
               kind.side ~id:(ge_id x j)
                 ~filter:(extend path (Predicate.Ge (x, Value.Float c)))
                 ~group_by:[])
             (thresholds_of x thresholds)))
      f.continuous
  @ List.concat_map
      (fun k -> kind.side ~id:(by_id k) ~filter:path ~group_by:[ k ])
      f.categorical

(* deterministic best: highest gain, ties by split description *)
let describe = function
  | Threshold (x, c) -> Printf.sprintf "t|%s|%g" x c
  | Category (k, v) -> Printf.sprintf "c|%s|%s" k (Value.to_string v)

let by_gain (g1, s1) (g2, s2) =
  match compare g2 g1 with 0 -> compare (describe s1) (describe s2) | c -> c

let children = function
  | Threshold (x, c) -> (Predicate.Ge (x, Value.Float c), Predicate.Lt (x, Value.Float c))
  | Category (k, v) -> (Predicate.Eq (k, v), Predicate.Not (Predicate.Eq (k, v)))

let c_node_aggregates = Obs.counter "ml.cart.node_aggregates"

(* A node at [max_depth] is a leaf whatever its statistics, so it reads only
   its total side; every other node requests the full split batch. *)
let rec grow kind ~max_depth ~min_samples ~min_gain ~evaluate ~path (f : Feature.t)
    thresholds depth =
  let at_max = depth >= max_depth in
  let specs =
    if at_max then kind.side ~id:"total" ~filter:path ~group_by:[]
    else node_specs kind ~path f thresholds
  in
  Obs.add c_node_aggregates (List.length specs);
  let lookup = evaluate specs in
  let node = kind.read None lookup "total" in
  let n = kind.count node in
  if at_max || n < min_samples || not (kind.splittable node) then
    kind.leaf node
  else begin
    let gain = kind.gain node in
    let candidates = ref [] in
    let consider split left =
      let right = kind.subtract node left in
      if kind.count left > 0.0 && kind.count right > 0.0 then
        candidates := (gain left right, split) :: !candidates
    in
    List.iter
      (fun x ->
        List.iteri
          (fun j c ->
            consider (Threshold (x, c)) (kind.read (Some node) lookup (ge_id x j)))
          (thresholds_of x thresholds))
      f.continuous;
    List.iter
      (fun k ->
        List.iter
          (fun (v, left) -> consider (Category (k, v)) left)
          (kind.grouped node lookup ~id:(by_id k) k))
      f.categorical;
    match List.sort by_gain !candidates with
    | (g, split) :: _ when g > min_gain ->
        let left_pred, right_pred = children split in
        let child p =
          grow kind ~max_depth ~min_samples ~min_gain ~evaluate ~path:(extend path p) f
            thresholds (depth + 1)
        in
        let left = child left_pred in
        let right = child right_pred in
        kind.node split left right n
    | _ -> kind.leaf node
  end

let thresholds_of_db (db : Database.t) (f : Feature.t) =
  List.map
    (fun x -> (x, Aggregates.Batch.thresholds_for db x f.thresholds_per_feature))
    f.continuous

(* Structure-aware training: one LMFAO batch per tree node. *)
let train kind ~max_depth ~min_samples ~min_gain (db : Database.t) (f : Feature.t) =
  let evaluate specs =
    Compile.Engine.lookup db { Aggregates.Batch.name = "tree-node"; aggregates = specs }
  in
  grow kind ~max_depth ~min_samples ~min_gain ~evaluate ~path:Predicate.True f
    (thresholds_of_db db f) 0

(* Structure-agnostic training over a materialised data matrix, the same
   specs evaluated by scans — the reference implementation. *)
let train_flat kind ~max_depth ~min_samples ~min_gain (join : Relation.t)
    (f : Feature.t) ~thresholds =
  let evaluate specs =
    let results = Hashtbl.create (List.length specs) in
    List.iter
      (fun spec -> Hashtbl.replace results spec.Spec.id (Spec.eval_flat join spec))
      specs;
    fun id ->
      match Hashtbl.find_opt results id with
      | Some r -> r
      | None -> invalid_arg ("Cart: missing aggregate " ^ id)
  in
  grow kind ~max_depth ~min_samples ~min_gain ~evaluate ~path:Predicate.True f thresholds 0
