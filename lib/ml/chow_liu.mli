(** Chow-Liu trees from the mutual-information batch (Figure 5's "Mutual
    inf." workload): pairwise MI from the marginal/joint counts, maximum
    spanning tree by Kruskal. *)

open Relational
module Spec = Aggregates.Spec

val mutual_information :
  total:float ->
  marginal_x:Spec.result ->
  marginal_y:Spec.result ->
  joint:Spec.result ->
  x:string ->
  y:string ->
  float
(** I(X; Y) from counts; non-negative up to float noise. *)

type edge = { a : string; b : string; mi : float }

val pairwise_mi : string list -> (string -> Spec.result) -> edge list
(** MI of every attribute pair, from mutual-information batch results. *)

val maximum_spanning_tree : string list -> edge list -> edge list
(** Kruskal; returns |attrs| - 1 edges for connected inputs. *)

val tree_over_database : Database.t -> string list -> edge list
(** End to end: synthesise the batch, run it through {!Compile.Engine},
    build the tree. *)
