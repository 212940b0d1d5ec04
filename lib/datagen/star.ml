(* The lattice star workload. The order of PRNG draws is part of the
   contract (pinned by test_datagen's stream digests): OCaml evaluates array
   literal elements right to left, so an insert draws the relation, then
   the feature value, then the keys from last to first. *)

open Relational

let db () =
  Database.create "lattice"
    [
      Relation.create "F"
        (Schema.make [ ("a", Value.TInt); ("b", Value.TInt); ("m", Value.TFloat) ]);
      Relation.create "D1" (Schema.make [ ("a", Value.TInt); ("u", Value.TFloat) ]);
      Relation.create "D2" (Schema.make [ ("b", Value.TInt); ("v", Value.TFloat) ]);
    ]

let features = [ "m"; "u"; "v" ]
let lattice rng = float_of_int (1 + Util.Prng.int rng 64) /. 16.0

let insert ~value rng =
  let key () = Value.Int (Util.Prng.int rng 4) in
  let rel = [| "F"; "D1"; "D2" |].(Util.Prng.int rng 3) in
  let tuple =
    match rel with
    | "F" -> [| key (); key (); Value.Float (value rng) |]
    | _ -> [| key (); Value.Float (value rng) |]
  in
  Fivm.Delta.insert rel tuple

type live = Fivm.Delta.update list ref (* newest first *)

let live () = ref []
let live_inserts live = List.rev !live

let update ~value live rng =
  if !live <> [] && Util.Prng.int rng 4 = 0 then begin
    let u = Util.Prng.choice rng (Array.of_list !live) in
    live := List.filter (fun x -> x != u) !live;
    Fivm.Delta.delete u.Fivm.Delta.relation u.Fivm.Delta.tuple
  end
  else begin
    let u = insert ~value rng in
    live := u :: !live;
    u
  end

let stream ~value ~seed ~steps =
  let rng = Util.Prng.create seed and live = live () in
  List.init steps (fun _ -> update ~value live rng)

let cov_batch = Aggregates.Batch.covariance_numeric features
let mi_batch = Aggregates.Batch.mutual_information [ "a"; "b" ]

let grouped_batch =
  {
    Aggregates.Batch.name = "grouped";
    aggregates =
      [
        Aggregates.Spec.make ~id:"sum_m_by_a" ~terms:[ ("m", 1) ] ~group_by:[ "a" ] ();
        Aggregates.Spec.count ~id:"n";
      ];
  }

let batches = [ cov_batch; mi_batch; grouped_batch ]
