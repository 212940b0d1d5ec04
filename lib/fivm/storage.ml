(* Mutable base-relation storage for IVM: per relation, a Z-multiset of
   tuples plus hash indexes on every join key shared with a join-tree
   neighbour. All three maintenance strategies read this storage; updates are
   applied once per delta, after the strategies have computed their view
   deltas against the pre-update state.

   Updates arrive as boxed tuples (the streaming edge), but both the
   multiset and the indexes hash [Keypack] keys: join keys over in-range
   int attributes pack into immediate ints, so the per-update probes hash
   ints rather than boxed tuple arrays.

   Index buckets are intrusive circular doubly-linked lists. Every live
   distinct tuple owns one [cell] per index, held in its [entry], so a
   delete unlinks its cells in O(1) whatever the bucket size. Each bucket
   has a sentinel cell; the list runs newest first (an insert links right
   after the sentinel), which is the iteration order the IVM strategies
   accumulate floats in. *)

open Relational
module Hybrid = Keypack.Hybrid

(* Distinct-tuple entry: the multiplicity, the tuple as first inserted, an
   insertion stamp, and the tuple's cell in each index (index order). The
   stamp orders [dump] output so a restored storage rebuilds its buckets in
   the SAME order as the original — bucket order feeds float accumulation
   order in the IVM strategies, and crash recovery promises bit-identical
   state. *)
type entry = {
  mutable mult : int;
  stamp : int;
  tuple : Tuple.t;
  cells : cell array;
}

and cell = { owner : entry; mutable prev : cell; mutable next : cell }

(* Owner of every bucket sentinel (and of the placeholder cell). *)
let no_entry = { mult = 0; stamp = -1; tuple = [||]; cells = [||] }

let rec no_cell = { owner = no_entry; prev = no_cell; next = no_cell }

let sentinel () =
  let rec s = { owner = no_entry; prev = s; next = s } in
  s

type index = {
  neighbour : string;
  positions : int array; (* key positions in this schema *)
  buckets : cell Hybrid.t; (* key -> bucket sentinel (never empty) *)
}

type node = {
  name : string;
  schema : Schema.t;
  all_positions : int array; (* identity; whole-tuple key for [tuples] *)
  tuples : entry Hybrid.t; (* whole-tuple key -> live entry (mult never 0) *)
  indexes : index array;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  jt : Join_tree.t;
  mutable next_stamp : int;
  mutable total : int; (* sum of |multiplicity| over every live entry *)
}

(* Undirected neighbour map from the join tree (via the default rooting plus
   reversal; every edge appears in both directions). *)
let neighbour_edges jt =
  let edges = ref [] in
  let rec walk (n : Join_tree.node) parent =
    (match parent with
    | Some p ->
        edges := (Relation.name n.rel, p) :: (p, Relation.name n.rel) :: !edges
    | None -> ());
    List.iter (fun c -> walk c (Some (Relation.name n.rel))) n.children
  in
  walk (Join_tree.tree jt) None;
  !edges

let create (db : Database.t) =
  let jt = Database.join_tree db in
  let edges = neighbour_edges jt in
  let nodes = Hashtbl.create 8 in
  List.iter
    (fun rel ->
      let name = Relation.name rel in
      let schema = Relation.schema rel in
      let indexes =
        List.filter_map
          (fun (a, b) ->
            if a <> name then None
            else
              let other = Join_tree.relation_by_name jt b in
              (* sorted so both endpoints of an edge agree on key order *)
              let key =
                List.sort compare (Schema.common schema (Relation.schema other))
              in
              Some
                {
                  neighbour = b;
                  positions = Array.of_list (List.map (Schema.position schema) key);
                  buckets = Hybrid.create 64;
                })
          edges
      in
      Hashtbl.replace nodes name
        {
          name;
          schema;
          all_positions = Array.init (Schema.arity schema) Fun.id;
          tuples = Hybrid.create 256;
          indexes = Array.of_list indexes;
        })
    (Database.relations db);
  { nodes; jt; next_stamp = 0; total = 0 }

let node t name =
  match Hashtbl.find_opt t.nodes name with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Storage.node: unknown relation %s" name)

let schema (n : node) = n.schema
let neighbours (n : node) = Array.to_list (Array.map (fun ix -> ix.neighbour) n.indexes)

let tuple_key (n : node) tuple = Keypack.key_of_tuple n.all_positions tuple

let multiplicity (n : node) tuple =
  match Hybrid.find_opt n.tuples (tuple_key n tuple) with
  | Some e -> e.mult
  | None -> 0

let index (n : node) ~neighbour what =
  let rec find i =
    if i = Array.length n.indexes then
      invalid_arg (Printf.sprintf "Storage.%s: not a neighbour" what)
    else if String.equal n.indexes.(i).neighbour neighbour then n.indexes.(i)
    else find (i + 1)
  in
  find 0

(* Distinct tuples of [n] joining with key [key] of neighbour [neighbour],
   newest first, with their multiplicities. *)
let iter_matching (n : node) ~neighbour (key : Keypack.key) f =
  let ix = index n ~neighbour "iter_matching" in
  match Hybrid.find_opt ix.buckets key with
  | None -> ()
  | Some s ->
      let rec go c =
        if c != s then begin
          f c.owner.tuple c.owner.mult;
          go c.next
        end
      in
      go s.next

let fold_matching (n : node) ~neighbour (key : Keypack.key) f init =
  let ix = index n ~neighbour "fold_matching" in
  match Hybrid.find_opt ix.buckets key with
  | None -> init
  | Some s ->
      let rec go c acc =
        if c == s then acc else go c.next (f c.owner.tuple c.owner.mult acc)
      in
      go s.next init

let key_for (n : node) ~neighbour tuple : Keypack.key =
  Keypack.key_of_tuple (index n ~neighbour "key_for").positions tuple

let apply t (u : Delta.update) =
  let n = node t u.relation in
  let tk = tuple_key n u.tuple in
  match Hybrid.find_opt n.tuples tk with
  | None ->
      if u.multiplicity <> 0 then begin
        let stamp = t.next_stamp in
        t.next_stamp <- stamp + 1;
        t.total <- t.total + abs u.multiplicity;
        let k = Array.length n.indexes in
        let cells = Array.make k no_cell in
        let e = { mult = u.multiplicity; stamp; tuple = u.tuple; cells } in
        for i = 0 to k - 1 do
          let ix = n.indexes.(i) in
          let key = Keypack.key_of_tuple ix.positions u.tuple in
          let s =
            match Hybrid.find_opt ix.buckets key with
            | Some s -> s
            | None ->
                let s = sentinel () in
                Hybrid.add ix.buckets key s;
                s
          in
          (* link at the bucket head, right after the sentinel *)
          let c = { owner = e; prev = s; next = s.next } in
          s.next.prev <- c;
          s.next <- c;
          cells.(i) <- c
        done;
        Hybrid.replace n.tuples tk e
      end
  | Some e ->
      let new_m = e.mult + u.multiplicity in
      t.total <- t.total + abs new_m - abs e.mult;
      if new_m <> 0 then e.mult <- new_m
      else begin
        Hybrid.remove n.tuples tk;
        for i = 0 to Array.length e.cells - 1 do
          let c = e.cells.(i) in
          let p = c.prev and nx = c.next in
          p.next <- nx;
          nx.prev <- p;
          (* the bucket emptied: both neighbours are its sentinel *)
          if p == nx then begin
            let ix = n.indexes.(i) in
            Hybrid.remove ix.buckets (Keypack.key_of_tuple ix.positions e.tuple)
          end
        done
      end

let total_tuples t = t.total

let join_tree t = t.jt

(* Iterate distinct tuples with multiplicities; tuples are reconstructed
   from their whole-tuple keys (packed keys unpack value-faithfully). *)
let iter_tuples (n : node) f =
  let arity = Array.length n.all_positions in
  Hybrid.iter (fun k e -> f (Keypack.key_tuple arity k) e.mult) n.tuples

(* Live contents in insertion-stamp order (oldest first): replaying the dump
   as inserts into a fresh storage rebuilds every bucket in the original
   order, so float accumulation downstream reproduces bit-identically. *)
let dump t : Delta.update list =
  let entries = ref [] in
  Hashtbl.iter
    (fun name n ->
      let arity = Array.length n.all_positions in
      Hybrid.iter
        (fun k e ->
          entries :=
            (e.stamp, { Delta.relation = name;
                        tuple = Keypack.key_tuple arity k;
                        multiplicity = e.mult })
            :: !entries)
        n.tuples)
    t.nodes;
  List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !entries)
