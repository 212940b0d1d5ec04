(* Domain-based parallel map over index ranges (OCaml 5 Domains).

   LMFAO's domain parallelism (Section 4 of the paper) partitions a relation
   into chunks processed by worker domains whose partial aggregates are then
   combined. This module provides exactly that pattern.

   All spawning goes through one PROCESS-GLOBAL worker budget: nested
   [parallel_tasks] / [parallel_chunks] calls (LMFAO recurses over subtrees
   from inside parallel root groups) acquire spawn tokens from a shared
   atomic pool and run inline when it is exhausted, so the peak number of
   live domains never exceeds [num_domains ()] no matter how deeply the
   calls nest or how many of them run concurrently. *)

(* [domains_of_env v] parses a BORG_DOMAINS value. Anything that is not a
   positive integer (junk, "", "0", negatives) falls back to the documented
   default: the runtime's recommendation capped at 8. *)
let default_domains () =
  Stdlib.max 1 (Stdlib.min 8 (Domain.recommended_domain_count ()))

let domains_of_env = function
  | None -> default_domains ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> d
      | Some _ | None -> default_domains ())

let num_domains () = domains_of_env (Sys.getenv_opt "BORG_DOMAINS")

(* ---------- the global worker budget ----------

   [budget_avail] holds the spawn tokens still free; each spawned domain
   holds one token until it is joined. The total is fixed at module
   initialisation to [num_domains () - 1] (the calling domain is the
   remaining worker), so with BORG_DOMAINS=1 nothing ever spawns. Tests and
   benchmarks may resize the pool with [set_worker_budget] while no workers
   are live. *)

let budget_total = Atomic.make (Stdlib.max 0 (num_domains () - 1))
let budget_avail = Atomic.make (Atomic.get budget_total)

let worker_budget () = Atomic.get budget_total

let set_worker_budget n =
  let n = Stdlib.max 0 n in
  Atomic.set budget_total n;
  Atomic.set budget_avail n

let rec try_acquire want =
  if want <= 0 then 0
  else
    let avail = Atomic.get budget_avail in
    if avail <= 0 then 0
    else
      let take = Stdlib.min want avail in
      if Atomic.compare_and_set budget_avail avail (avail - take) then take
      else try_acquire want

let release n = if n > 0 then ignore (Atomic.fetch_and_add budget_avail n)

(* Live-domain accounting (1 = the main domain). The counter moves in the
   spawning domain — up just before [Domain.spawn], down after the matching
   join — so [peak_live_domains] is an upper bound on concurrently live
   domains and exactly mirrors token ownership. *)

let live = Atomic.make 1
let peak = Atomic.make 1

let rec bump_peak v =
  let p = Atomic.get peak in
  if v > p && not (Atomic.compare_and_set peak p v) then bump_peak v

let live_domains () = Atomic.get live
let peak_live_domains () = Atomic.get peak
let reset_peak_live_domains () = Atomic.set peak (Atomic.get live)

let c_spawned = Obs.counter "pool.spawned"
let c_inline = Obs.counter "pool.budget_inline"

(* Spawn [granted] copies of [worker] (the caller already holds [granted]
   tokens), run [worker] inline too, then join and release. Every domain is
   joined and tokens and the live count are restored even if a worker
   raises; the first exception (inline first, then in spawn order) is then
   re-raised as is. *)
let with_workers granted worker =
  if granted <= 0 then worker ()
  else begin
    bump_peak (granted + Atomic.fetch_and_add live granted);
    Obs.add c_spawned granted;
    let spawned = List.init granted (fun _ -> Domain.spawn worker) in
    let capture f =
      match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    let inline = capture worker in
    let joined = List.map (fun d -> capture (fun () -> Domain.join d)) spawned in
    ignore (Atomic.fetch_and_add live (-granted));
    release granted;
    match List.find_map (function Error e -> Some e | Ok _ -> None) (inline :: joined) with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Result.get_ok inline
  end

(* Split [0, n) into at most [chunks] contiguous ranges. *)
let ranges n chunks =
  let chunks = Stdlib.max 1 (Stdlib.min n chunks) in
  let base = n / chunks and rem = n mod chunks in
  let rec build i start acc =
    if i = chunks then List.rev acc
    else
      let len = base + if i < rem then 1 else 0 in
      build (i + 1) (start + len) ((start, len) :: acc)
  in
  if n = 0 then [] else build 0 0 []

(* [parallel_chunks ~domains ~chunks n f ~combine ~zero] applies [f lo len]
   on each chunk, distributing chunks over worker domains, and folds the
   results with [combine] in chunk-index order. The decomposition and the
   fold order depend only on [n] and [chunks] — never on how many domains
   execute them — so for a fixed chunk count the result is bit-identical
   across domain counts even when [combine] is non-commutative.
   [chunks] defaults to [domains] to preserve the historical decomposition
   for callers with commutative combines. With one worker (or one chunk)
   everything runs inline on the calling domain: no spawn. *)
let parallel_chunks ?domains ?chunks n f ~combine ~zero =
  let domains =
    Stdlib.max 1 (match domains with Some d -> d | None -> num_domains ())
  in
  let chunks = match chunks with Some c -> Stdlib.max 1 c | None -> domains in
  match ranges n chunks with
  | [] -> zero
  | [ (lo, len) ] -> combine zero (f lo len)
  | rs ->
      let rs = Array.of_list rs in
      let k = Array.length rs in
      let results = Array.make k None in
      let workers = Stdlib.min domains k in
      let granted = if workers <= 1 then 0 else try_acquire (workers - 1) in
      if granted = 0 then begin
        if workers > 1 then Obs.add c_inline k;
        Array.iteri (fun i (lo, len) -> results.(i) <- Some (f lo len)) rs
      end
      else begin
        let next = Atomic.make 0 in
        let worker () =
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < k then begin
              let lo, len = rs.(i) in
              results.(i) <- Some (f lo len);
              loop ()
            end
          in
          loop ()
        in
        with_workers granted worker
      end;
      Array.fold_left
        (fun acc r ->
          match r with
          | Some v -> combine acc v
          | None -> failwith "Pool.parallel_chunks: missing chunk")
        zero results

(* Run a list of independent thunks in parallel, preserving order of
   results. Used for LMFAO task parallelism over independent view groups. *)
let parallel_tasks ?domains thunks =
  let domains = match domains with Some d -> d | None -> num_domains () in
  if domains <= 1 then List.map (fun f -> f ()) thunks
  else begin
    let tasks = Array.of_list thunks in
    let n = Array.length tasks in
    let results = Array.make n None in
    let granted =
      try_acquire (Stdlib.min (domains - 1) (Stdlib.max 0 (n - 1)))
    in
    if granted = 0 then begin
      Obs.add c_inline n;
      Array.iteri (fun i t -> results.(i) <- Some (t ())) tasks
    end
    else begin
      let next = Atomic.make 0 in
      let worker () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            results.(i) <- Some (tasks.(i) ());
            loop ()
          end
        in
        loop ()
      in
      with_workers granted worker
    end;
    Array.to_list
      (Array.map
         (function Some r -> r | None -> failwith "Pool.parallel_tasks: missing")
         results)
  end
