(* Per-shard resilient drivers over a Fivm.Shard plan. Each shard keeps its
   own WAL + checkpoints under dir/shard-<k>; crashes are caught inside the
   owning shard's Pool task, which recreates the driver (per-shard recovery:
   only shard k's checkpoint + WAL tail are read) and resumes its queue from
   the recovered sequence number. [resume] does the same across processes:
   it replays a stream from its start over recovered drivers. *)

open Fivm
module Cov = Rings.Covariance

let c_crashes = Obs.counter "resilience.shard.crashes"

type t = {
  plan : Shard.plan;
  drivers : Driver.t array;
  max_restarts : int;
  crashes : int Atomic.t;
}

let create ?(checkpoint_every = 256) ?(audit_every = 0) ?(audit_eps = 1e-6)
    ?(max_retries = 8) ?(max_restarts = 8) ?faults ~dir ~plan make =
  let n = Shard.plan_shards plan in
  let fault_plan k =
    match faults with Some f -> f k | None -> Faults.none ()
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let drivers =
    Array.init n (fun k ->
        Driver.create
          (Driver.config ~checkpoint_every ~audit_every ~audit_eps ~max_retries
             ~faults:(fault_plan k)
             (Filename.concat dir (Printf.sprintf "shard-%d" k)))
          make)
  in
  { plan; drivers; max_restarts; crashes = Atomic.make 0 }

let shards t = Array.length t.drivers
let plan_of t = t.plan

(* One shard's submit loop; crashes recover in-task (Driver.submit_all),
   and each recovered driver replaces the crashed one as it happens. *)
let run_shard t k queue =
  let on_crash d =
    t.drivers.(k) <- d;
    Atomic.incr t.crashes;
    Obs.incr c_crashes
  in
  ignore (Driver.submit_all ~max_restarts:t.max_restarts ~on_crash t.drivers.(k) queue)

let run ?domains t queues =
  Obs.with_span "resilience.shard.batch" (fun () ->
      let tasks = List.init (Array.length t.drivers) (fun k () -> run_shard t k queues.(k)) in
      ignore (Util.Pool.parallel_tasks ?domains tasks))

let submit_batch ?domains t updates =
  run ?domains t (Array.map Array.of_list (Shard.partition t.plan updates))

(* Shard k's queue is a fixed subsequence of the stream, committed in order,
   so its first [seq k] entries are exactly what it already holds. *)
let resume t stream =
  let queues = Array.map Array.of_list (Shard.partition t.plan stream) in
  run t
    (Array.mapi
       (fun k q ->
         let s = Driver.seq t.drivers.(k) and n = Array.length q in
         if s > n then
           failwith
             (Printf.sprintf
                "resilience: shard %d has committed %d updates but the stream routes \
                 it %d: the checkpoint directory holds another stream"
                k s n);
         Array.sub q s (n - s))
       queues)

(* Canonical shard-order merge starting from shard 0's triple — see
   Fivm.Shard.covariance. *)
let covariance t =
  let parts = Array.map Driver.covariance t.drivers in
  let acc = ref parts.(0) in
  for k = 1 to Array.length parts - 1 do
    acc := Cov.add !acc parts.(k)
  done;
  !acc

let seqs t = Array.map Driver.seq t.drivers
let seq t = Array.fold_left ( + ) 0 (seqs t)
let crashes t = Atomic.get t.crashes

let quarantined t =
  Array.to_list t.drivers |> List.concat_map Driver.quarantined

let driver t k = t.drivers.(k)
let checkpoint_now t = Array.iter Driver.checkpoint_now t.drivers
let close t = Array.iter Driver.close t.drivers
