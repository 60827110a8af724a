module Pool = Abp_hood.Pool
module Counters = Abp_trace.Counters
module Padding = Abp_deque.Padding

type t = {
  serves : Serve.t array;
  shards : int;
  cross_period : int;
  (* Round-robin cursor for keyless routing; one fetch-and-add per
     submission, on its own cache line. *)
  rr : int Atomic.t;
  (* Per-shard admission histogram (the shard_route telemetry): which
     shard each accepted submission was routed to.  One padded atomic per
     shard — submitters from many domains bump them concurrently. *)
  routed : int Atomic.t array;
}

(* ------------------------------------------------------------------ *)
(* Cross-shard stealing policy                                         *)

(* Per-thief (per-domain) cross-steal state.  A worker domain belongs to
   exactly one shard's pool, so domain-local storage gives each thief its
   own single-writer record with no indexing protocol: [probe] drives the
   rate limit, [last_shard]/[last_victim] remember the last productive
   victim (the localized-stealing preference), and [rng] picks fresh
   victims.  The record is created lazily on the thief's first
   empty-handed trip past its own injector. *)
type thief = {
  mutable probe : int;
  mutable last_shard : int;  (* -1 = no remembered victim *)
  mutable last_victim : int;  (* worker index, or -1 = that shard's inbox *)
  rng : Abp_stats.Rng.t;
}

let thief_seed = Atomic.make 0

let thief_key : thief Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let n = Atomic.fetch_and_add thief_seed 1 in
      {
        (* Stagger the rate-limit phase across thieves so they do not
           cross the shard boundary in lockstep. *)
        probe = n;
        last_shard = -1;
        last_victim = -1;
        rng = Abp_stats.Rng.create ~seed:(Int64.of_int (0x51ED + (n * 0x9E37))) ();
      })

(* The closures below are built before the serve array exists (each
   serve's pool needs its overflow source at creation), so they read the
   array through [cell], set once after construction.  A worker that
   races construction sees [[||]] and treats the topology as unsharded —
   no remote work, nothing pending. *)

let try_victim serves j victim =
  let s = serves.(j) in
  if victim >= 0 then Pool.steal_from (Serve.pool s) ~victim else Serve.steal_inbox s

(* Lane-aware relief: scan the siblings for queued deadline-lane work
   and take one job (deadline lane ONLY) ahead of any bulk
   cross-steal.  This path deliberately bypasses the [cross_period]
   throttle — a deadline burst on one shard must not wait out an idle
   sibling's rate limiter — while bulk keeps the existing budget; the
   scan is a handful of atomic depth reads per empty-handed trip.  The
   start offset rotates with the thief's probe counter so concurrent
   thieves fan out over different siblings. *)
let deadline_relief serves st my k =
  let rec scan i =
    if i >= k then None
    else
      let j = (st.probe + i) mod k in
      if j = my || Serve.lane_depth serves.(j) Serve.Deadline = 0 then scan (i + 1)
      else
        match Serve.steal_inbox_deadline serves.(j) with
        | None -> scan (i + 1)
        | Some _ as got ->
            st.last_shard <- j;
            st.last_victim <- -1;
            got
  in
  scan 0

let cross_take cell ~cross_period my () =
  let serves = Atomic.get cell in
  let k = Array.length serves in
  if k <= 1 then None
  else begin
    let st = Domain.DLS.get thief_key in
    st.probe <- st.probe + 1;
    match deadline_relief serves st my k with
    | Some _ as got -> got
    | None ->
        (* Rate limit: only every [cross_period]-th empty-handed trip
           actually touches a remote shard; the other trips return
           immediately, so transient imbalance is absorbed locally and
           the steady state never degenerates into all-to-all
           stealing. *)
        if st.probe mod cross_period <> 0 then None
        else begin
          (* 1. The last productive victim first (the localized-stealing
             preference): a shard that overflowed once is likely still
             the hot one, and revisiting it keeps the traffic pairwise. *)
          let from_last =
            if st.last_shard < 0 || st.last_shard >= k || st.last_shard = my then None
            else
              let victim =
                if st.last_victim < Pool.size (Serve.pool serves.(st.last_shard)) then
                  st.last_victim
                else -1
              in
              try_victim serves st.last_shard victim
          in
          match from_last with
          | Some _ -> from_last
          | None -> (
              st.last_shard <- -1;
              (* 2. One uniformly random remote shard: a random victim
                 deque first, then that shard's injector inbox. *)
              let j0 = Abp_stats.Rng.int st.rng (k - 1) in
              let j = if j0 >= my then j0 + 1 else j0 in
              let p = Serve.pool serves.(j) in
              let v = Abp_stats.Rng.int st.rng (Pool.size p) in
              match Pool.steal_from p ~victim:v with
              | Some _ as got ->
                  st.last_shard <- j;
                  st.last_victim <- v;
                  got
              | None -> (
                  match Serve.steal_inbox serves.(j) with
                  | None -> None
                  | Some _ as got ->
                      st.last_shard <- j;
                      st.last_victim <- -1;
                      got))
        end
  end

(* Advisory view for the parking protocol: is there anything a
   cross-shard steal could still acquire?  O(total workers), but only
   consulted when a thief is about to block. *)
let cross_pending cell my () =
  let serves = Atomic.get cell in
  let k = Array.length serves in
  let shard_has j =
    j <> my
    && begin
         let s = serves.(j) in
         Serve.inbox_depth s > 0
         ||
         let p = Serve.pool s in
         let n = Pool.size p in
         let rec go w = w < n && (Pool.deque_size p w > 0 || go (w + 1)) in
         go 0
       end
  in
  let rec any j = j < k && (shard_has j || any (j + 1)) in
  k > 1 && any 0

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

(* The overflow source's telemetry: every poll counts in [cross_polls],
   a non-empty one also in [cross_shard_steals] and
   [cross_stolen_tasks]. *)
let note_cross c hit =
  Counters.incr c Counters.cross_polls;
  if hit then begin
    Counters.incr c Counters.cross_shard_steals;
    Counters.incr c Counters.cross_stolen_tasks
  end

let create ?processes ?park_threshold ?yield_kind ?gates ?inbox_capacity ?traces
    ?(cross_period = 8) ~shards () =
  if shards < 1 then invalid_arg "Shard.create: shards >= 1 required";
  if cross_period < 1 then invalid_arg "Shard.create: cross_period >= 1 required";
  (match gates with
  | Some a when Array.length a <> shards ->
      invalid_arg "Shard.create: gates must have one entry per shard"
  | _ -> ());
  (match traces with
  | Some a when Array.length a <> shards ->
      invalid_arg "Shard.create: traces must have one entry per shard"
  | _ -> ());
  let cell = Atomic.make [||] in
  let serves =
    Array.init shards (fun i ->
        let overflow =
          if shards = 1 then None
          else
            Some
              {
                Pool.take = cross_take cell ~cross_period i;
                pending = cross_pending cell i;
                note = note_cross;
                event = Some Abp_trace.Event.Cross;
              }
        in
        Serve.create ?processes ?park_threshold ?yield_kind
          ?gate:(match gates with Some a -> Some a.(i) | None -> None)
          ?inbox_capacity
          ?trace:(match traces with Some a -> Some a.(i) | None -> None)
          ?overflow ())
  in
  Atomic.set cell serves;
  {
    serves;
    shards;
    cross_period;
    rr = Padding.atomic 0;
    routed = Array.init shards (fun _ -> Padding.atomic 0);
  }

let shards t = t.shards
let cross_period t = t.cross_period

let serve t i =
  if i < 0 || i >= t.shards then invalid_arg "Shard.serve: shard index out of range";
  t.serves.(i)

let size t = Array.fold_left (fun acc s -> acc + Pool.size (Serve.pool s)) 0 t.serves

(* ------------------------------------------------------------------ *)
(* Routing and submission                                              *)

(* Equal keys always land on the same shard: the shard count never
   changes after [create]. *)
let shard_of_key t key = Hashtbl.hash key mod t.shards

let wake_siblings t i =
  Array.iteri (fun j s -> if j <> i then Pool.wake (Serve.pool s)) t.serves

let route t = function
  | Some key -> shard_of_key t key
  | None -> Atomic.fetch_and_add t.rr 1 land max_int mod t.shards

(* One admission attempt on the shard [key] routes to.  The
   empty->nonempty transition of the target inbox is detected against
   the pre-push depth: if this submission is (racily) the one that made
   it nonempty, every sibling pool is woken so a parked thief of an idle
   shard can cross-steal it — [Serve.admit] itself only wakes its own
   pool.  Waking is cheap when nobody is parked (one atomic read per
   sibling), and over-waking is harmless.  Only [drain] and [shutdown]
   stop admission, so a [Draining] refusal is final. *)
let submit_on ~count_reject t ?key ?lane ?deadline f =
  let i = route t key in
  let s = t.serves.(i) in
  let was_empty = Serve.inbox_depth s = 0 in
  match Serve.admit s ~count_reject ?lane ?deadline f with
  | Ok _ as r ->
      Atomic.incr t.routed.(i);
      if was_empty && t.shards > 1 then wake_siblings t i;
      r
  | Error _ as r -> r

let try_submit t ?key ?lane ?deadline f = submit_on ~count_reject:true t ?key ?lane ?deadline f

(* Backpressure retries are not refusals, so they do not count in
   [rejected].  A keyless retry re-routes through the round-robin cursor
   and lands on the next shard rather than hammering the full one; a
   keyed one stays on its shard to preserve affinity. *)
let rec submit t ?key ?lane ?deadline f =
  match submit_on ~count_reject:false t ?key ?lane ?deadline f with
  | Ok tk -> tk
  | Error Serve.Draining -> failwith "Shard.submit: admission stopped (draining or shut down)"
  | Error Serve.Inbox_full ->
      Domain.cpu_relax ();
      submit t ?key ?lane ?deadline f

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let sum_stats sts =
  Array.fold_left
    (fun acc st ->
      {
        Serve.accepted = acc.Serve.accepted + st.Serve.accepted;
        completed = acc.Serve.completed + st.Serve.completed;
        rejected = acc.Serve.rejected + st.Serve.rejected;
        cancelled = acc.Serve.cancelled + st.Serve.cancelled;
        exceptions = acc.Serve.exceptions + st.Serve.exceptions;
        suspended = acc.Serve.suspended + st.Serve.suspended;
      })
    { Serve.accepted = 0; completed = 0; rejected = 0; cancelled = 0; exceptions = 0; suspended = 0 }
    sts

let stats t = sum_stats (Array.map Serve.stats t.serves)

(* Await-aware conservation: a request parked on a promise is accepted
   but neither completed nor cancelled, so the quiescent-point identity
   carries the [suspended] term.  After a full drain every promise has
   resolved, suspended = 0, and this collapses to the classic
   accepted = completed + cancelled + exceptions. *)
let conserved t =
  Array.for_all
    (fun s ->
      let st = Serve.stats s in
      st.Serve.accepted
      = st.Serve.completed + st.Serve.cancelled + st.Serve.exceptions + st.Serve.suspended)
    t.serves

let lane_stats t lane =
  Array.fold_left
    (fun acc s ->
      let ls = Serve.lane_stats s lane in
      {
        Serve.lane_accepted = acc.Serve.lane_accepted + ls.Serve.lane_accepted;
        lane_completed = acc.Serve.lane_completed + ls.Serve.lane_completed;
        lane_rejected = acc.Serve.lane_rejected + ls.Serve.lane_rejected;
        lane_cancelled = acc.Serve.lane_cancelled + ls.Serve.lane_cancelled;
        lane_exceptions = acc.Serve.lane_exceptions + ls.Serve.lane_exceptions;
        lane_misses = acc.Serve.lane_misses + ls.Serve.lane_misses;
      })
    {
      Serve.lane_accepted = 0;
      lane_completed = 0;
      lane_rejected = 0;
      lane_cancelled = 0;
      lane_exceptions = 0;
      lane_misses = 0;
    }
    t.serves

(* Cross-shard latency aggregation: the histograms are mergeable, so
   the sharded percentiles are computed over the union of samples, not
   averaged per shard. *)
let merge_lane_hists hist_of t lane =
  let hs = Array.to_list (Array.map (fun s -> hist_of s lane) t.serves) in
  match hs with
  | [] -> assert false
  | h :: rest ->
      let acc = Abp_stats.Log_histogram.copy h in
      List.iter (fun h' -> Abp_stats.Log_histogram.add ~into:acc h') rest;
      acc

let lane_sojourn_hist t lane = merge_lane_hists Serve.lane_sojourn_hist t lane
let lane_sojourn_latency t lane = Serve.latency_of_histogram (lane_sojourn_hist t lane)

let sojourn_latency t =
  let h = lane_sojourn_hist t Serve.Bulk in
  Abp_stats.Log_histogram.add ~into:h (lane_sojourn_hist t Serve.Deadline);
  Serve.latency_of_histogram h

let route_counts t = Array.map Atomic.get t.routed
let inbox_depths t = Array.map Serve.inbox_depth t.serves

(* Every shard's per-worker counters in one aggregate. *)
let totals t =
  let pools = Array.to_list t.serves |> List.map Serve.pool in
  Counters.sum (Array.concat (List.map Pool.counters pools))

let cross_polls t = Counters.get (totals t) Counters.cross_polls
let cross_shard_steals t = Counters.get (totals t) Counters.cross_shard_steals
let cross_stolen_tasks t = Counters.get (totals t) Counters.cross_stolen_tasks

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

(* Admission is stopped on EVERY shard before waiting on any: otherwise
   a still-admitting sibling could keep feeding tasks that this shard's
   thieves cross-steal, and the per-shard settled conditions would chase
   a moving target. *)
let drain t =
  Array.iter Serve.stop_admission t.serves;
  Array.iter (fun s -> Pool.wake (Serve.pool s)) t.serves;
  sum_stats (Array.map Serve.drain t.serves)

(* Shutdown ordering: join ALL pools before dropping ANY queue.  A task
   queued on shard [i] may be cross-stolen and running on shard [j]'s
   worker; only once every worker domain is joined is "still queued"
   terminal, and the global no-task-runs-after-shutdown guarantee
   carries over from the single-pool case. *)
let shutdown t =
  Array.iter Serve.stop_admission t.serves;
  Array.iter Serve.join_workers t.serves;
  Array.iter Serve.drop_queued t.serves

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let pp_report ppf t =
  let st = stats t in
  let c = totals t in
  Fmt.pf ppf "=== shard report (%d shards, %d workers total) ===@." t.shards (size t);
  Fmt.pf ppf "accepted %d  completed %d  rejected %d  cancelled %d  exceptions %d  suspended %d@."
    st.Serve.accepted st.Serve.completed st.Serve.rejected st.Serve.cancelled st.Serve.exceptions
    st.Serve.suspended;
  Fmt.pf ppf "cross-shard: polls %d  steals %d  tasks %d (period %d)@."
    (Counters.get c Counters.cross_polls)
    (Counters.get c Counters.cross_shard_steals)
    (Counters.get c Counters.cross_stolen_tasks)
    t.cross_period;
  Array.iteri
    (fun i s ->
      let sst = Serve.stats s in
      Fmt.pf ppf
        "shard %d: routed %d  accepted %d  completed %d  cancelled %d  exceptions %d  \
         inbox depth %d (high-water %d)@."
        i
        (Atomic.get t.routed.(i))
        sst.Serve.accepted sst.Serve.completed sst.Serve.cancelled sst.Serve.exceptions
        (Serve.inbox_depth s) (Serve.inbox_high_water s))
    t.serves
