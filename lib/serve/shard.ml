module Pool = Abp_hood.Pool
module Worker = Abp_hood.Worker
module Parking = Abp_hood.Parking
module Padding = Abp_deque.Padding
module Fiber = Abp_fiber.Fiber
module Clock = Abp_trace.Clock
module Counters = Abp_trace.Counters
module Log_histogram = Abp_stats.Log_histogram

(* ------------------------------------------------------------------ *)
(* One micropool                                                       *)

module Serve = struct
  (* [lane] is defined before [reason] on purpose: both have a [Deadline]
     constructor, and with this order an unqualified [Deadline] keeps
     meaning the cancellation reason (the later definition wins), so all
     pre-lane code and tests read unchanged; lane contexts pick the lane
     constructor by type-directed disambiguation. *)
  type lane = Bulk | Deadline

  let lane_idx = function Bulk -> 0 | Deadline -> 1
  let lane_name = function Bulk -> "bulk" | Deadline -> "deadline"
  let lanes = [ Bulk; Deadline ]

  type reason = Deadline | Explicit | Shutdown
  type 'a outcome = Returned of 'a | Raised of exn | Cancelled of reason
  type reject = Inbox_full | Draining

  type stats = {
    accepted : int;
    completed : int;
    rejected : int;
    cancelled : int;
    exceptions : int;
    suspended : int;
  }

  type lane_stats = {
    lane_accepted : int;
    lane_completed : int;
    lane_rejected : int;
    lane_cancelled : int;
    lane_exceptions : int;
    lane_misses : int;
  }

  type latency = {
    samples : int;
    mean : float;
    p50 : float;
    p90 : float;
    p99 : float;
    p999 : float;
    max : float;
  }

  (* What the inboxes hold: one closure over the ticket, which either
     runs the request or, once [drop_queued] has begun, cancels it. *)
  type job = unit -> unit

  (* The ledger: per-lane admission counters, each padded (written from
     many domains).  The micropool's totals are their sums, so an
     admission, a start or a settle bumps one atomic.  [l_started] counts
     the claims a worker won; the claims a dropper won count in
     [l_cancelled].  The lane-wise invariant [lane_accepted =
     lane_completed + lane_cancelled + lane_exceptions] holds once
     drained/shut down, and [started - completed - exceptions] is the
     lane's share of the [suspended] term. *)
  type lane_counters = {
    l_accepted : int Atomic.t;
    l_started : int Atomic.t;
    l_completed : int Atomic.t;
    l_rejected : int Atomic.t;
    l_cancelled : int Atomic.t;
    l_exceptions : int Atomic.t;
    (* Settlements (completions or exceptions) that landed past the
       ticket's absolute deadline.  Not part of the conservation ledger —
       a miss is a completed request that was merely late. *)
    l_misses : int Atomic.t;
  }

  (* Per-lane latency histograms (nanoseconds), one set for the whole
     group of shards, each sharded by the executing worker's group-wide
     slot ({!slot}): the record path is plain writes into that worker's
     own copy — no shared atomics per request — merged at report
     time. *)
  type lane_lat = {
    queue_h : Log_histogram.Sharded.t;  (* submission -> start *)
    run_h : Log_histogram.Sharded.t;  (* start -> settle (await included) *)
    sojourn_h : Log_histogram.Sharded.t;  (* submission -> settle *)
  }

  type t = {
    pool : Pool.t;
    inbox : job Injector.t;  (* bulk lane *)
    dl_inbox : job Injector.t;  (* deadline lane, polled first *)
    admitting : bool Atomic.t;
    stopped : bool Atomic.t;
    high_water : int Atomic.t;
    by_lane : lane_counters array;  (* indexed by [lane_idx] *)
    lat : lane_lat array;  (* indexed by [lane_idx]; shared by the group *)
    (* Every micropool of the group, in shard order: [[||]] until the
       last one is built.  The cross-shard source reaches its victims
       through it, and {!slot} finds the executing worker's shard. *)
    group : t array Atomic.t;
    (* Bulk anti-starvation credit: every arbiter poll that served the
       deadline lane while bulk work waited accrues one credit; at
       [bulk_credit_period - 1] the next poll drains bulk first and the
       balance resets, guaranteeing bulk at least a 1-in-
       [bulk_credit_period] share of polls under sustained deadline
       traffic. *)
    credit : int Atomic.t;
    (* [await] and [drain] callers off the pool park here; every
       terminal transition wakes them all (one atomic read when nobody
       waits). *)
    completion : Parking.t;
    (* Set by [drop_queued] alone, once every shard's workers are joined:
       a job that starts with it set cancels its ticket with [Shutdown]
       instead of running. *)
    dropping : bool Atomic.t;
  }

  let bulk_credit_period = 4

  (* [claimed] is the claim word: a worker starting the task and a
     dropper (cancel, deadline, shutdown) race to flip it, and the winner
     alone fulfils [promise] — so every ticket settles exactly once. *)
  type 'a ticket = {
    claimed : bool Atomic.t;
    promise : 'a outcome Fiber.Promise.t;
    srv : t;
    tk_lane : lane;
    submitted : int;  (* ns, against [Clock.now] *)
    t_deadline : int option;  (* absolute ns, against [Clock.now] *)
  }

  let wait_until s settled =
    while not (settled ()) do
      Parking.park s.completion ~ready:settled
    done

  (* The lane source's telemetry: every poll counts in [inject_polls], a
     non-empty one also in [inject_tasks]. *)
  let note_inject c hit =
    Counters.incr c Counters.inject_polls;
    if hit then Counters.incr c Counters.inject_tasks

  (* The deadline lane's telemetry, written inside the lane source's
     [take] into the executing worker's own record: every poll counts in
     [lane_polls], a non-empty one also in [lane_tasks].  A caller off the
     pool (a test driving the closure directly) counts nothing. *)
  let note_lane hit =
    match Worker.exec_counters () with
    | Some c ->
        Counters.incr c Counters.lane_polls;
        if hit then Counters.incr c Counters.lane_tasks
    | None -> ()

  (* ~1 h of nanoseconds per histogram: far beyond any realistic request
     latency, so overflow clamping is effectively unreachable while the
     bucket array stays small. *)
  let make_lat ~slots =
    let max_value = 3600 * Clock.ns_per_s in
    let h () = Log_histogram.Sharded.create ~max_value ~shards:slots () in
    Array.init 2 (fun _ -> { queue_h = h (); run_h = h (); sojourn_h = h () })

  let create ~processes ?park_after ?yield_kind ?gate ?(inbox_capacity = 1024) ?trace
      ?overflow ~lat ~group () =
    let inbox = Injector.create ~capacity:inbox_capacity () in
    let dl_inbox = Injector.create ~capacity:inbox_capacity () in
    let credit = Padding.atomic 0 in
    let poll_deadline () =
      let j = Injector.try_pop dl_inbox in
      note_lane (Option.is_some j);
      j
    in
    (* The lane arbiter, the pool's source right after its resume inbox:
       one job per take, deadline lane first, bulk when it is empty —
       except that accrued bulk credit forces a bulk-first poll
       (anti-starvation).  Each lane is FIFO. *)
    let take () =
      if Atomic.get credit >= bulk_credit_period - 1 && not (Injector.is_empty inbox) then
        match Injector.try_pop inbox with
        | Some _ as j ->
            Atomic.set credit 0;
            note_lane false;
            j
        | None -> poll_deadline ()
      else
        match poll_deadline () with
        | Some _ as j ->
            if not (Injector.is_empty inbox) then Atomic.incr credit;
            j
        | None -> Injector.try_pop inbox
    in
    let lanes =
      {
        Pool.take;
        pending = (fun () -> not (Injector.is_empty dl_inbox && Injector.is_empty inbox));
        note = note_inject;
        event = Some Abp_trace.Event.Inject;
      }
    in
    let pool =
      Pool.create ~processes ?park_after ?yield_kind ?gate ?trace
        ~sources:(lanes :: Option.to_list overflow) ~spawn_all:true ()
    in
    {
      pool;
      inbox;
      dl_inbox;
      admitting = Atomic.make true;
      stopped = Atomic.make false;
      high_water = Padding.atomic 0;
      by_lane =
        Array.init 2 (fun _ ->
            {
              l_accepted = Padding.atomic 0;
              l_started = Padding.atomic 0;
              l_completed = Padding.atomic 0;
              l_rejected = Padding.atomic 0;
              l_cancelled = Padding.atomic 0;
              l_exceptions = Padding.atomic 0;
              l_misses = Padding.atomic 0;
            });
      lat;
      group;
      credit;
      completion = Parking.create ();
      dropping = Atomic.make false;
    }

  let pool s = s.pool

  let lane_stats s lane =
    let l = s.by_lane.(lane_idx lane) in
    {
      lane_accepted = Atomic.get l.l_accepted;
      lane_completed = Atomic.get l.l_completed;
      lane_rejected = Atomic.get l.l_rejected;
      lane_cancelled = Atomic.get l.l_cancelled;
      lane_exceptions = Atomic.get l.l_exceptions;
      lane_misses = Atomic.get l.l_misses;
    }

  (* The totals, summed from the lane ledger.  [suspended] is derived:
     the requests started and not yet settled.  Every settle follows its
     start, so reading [l_started] after the settle counters keeps it
     from reading negative. *)
  let stats s =
    let b = lane_stats s Bulk in
    let d = lane_stats s Deadline in
    let started = Atomic.get s.by_lane.(0).l_started + Atomic.get s.by_lane.(1).l_started in
    let completed = b.lane_completed + d.lane_completed in
    let exceptions = b.lane_exceptions + d.lane_exceptions in
    {
      accepted = b.lane_accepted + d.lane_accepted;
      completed;
      rejected = b.lane_rejected + d.lane_rejected;
      cancelled = b.lane_cancelled + d.lane_cancelled;
      exceptions;
      suspended = started - completed - exceptions;
    }

  let inbox_depth s = Injector.size s.inbox + Injector.size s.dl_inbox

  let note_high_water s =
    let d = inbox_depth s in
    let rec go () =
      let cur = Atomic.get s.high_water in
      if d > cur && not (Atomic.compare_and_set s.high_water cur d) then go ()
    in
    go ()

  let claim tk = Atomic.compare_and_set tk.claimed false true

  (* The promise is fulfilled before the counter moves, so a [drain] that
     sees the ledger settled never finds a pending ticket. *)
  let drop s tk why =
    claim tk
    && begin
         Fiber.Promise.fulfil tk.promise (Cancelled why);
         Atomic.incr s.by_lane.(lane_idx tk.tk_lane).l_cancelled;
         Parking.wake_all s.completion;
         true
       end

  (* The executing worker's slot in the group-wide histograms: its
     shard's first slot plus its index in its own pool, so every (shard,
     worker) pair writes its own copy — a cross-stolen or migrated
     request records into the thief's slot, never into a home-shard slot
     that the home worker of the same index may be writing.  A domain
     that is no worker of the group (a continuation resumed by a foreign
     pool, a test driving a job closure) records into slot 0. *)
  let slot s =
    match (Worker.self_pool (), Worker.self_id ()) with
    | Some p, Some id ->
        let group = Atomic.get s.group in
        let rec find j =
          if j >= Array.length group then 0
          else if group.(j).pool == p then (j * Pool.size p) + id
          else find (j + 1)
        in
        find 0
    | _ -> 0

  (* The job body: claim, work, settle.  The worker's [exec] runs it
     under the pool's fiber handler, the only one on the stack: if [f]
     awaits a pending promise, the job returns with the rest of the body
     (the settlement below included) parked, and the worker moves on.
     The ticket stays claimed but unsettled, counted in [l_started] and
     in no settle counter, until its resume settles it, so [run_h]
     measures claim-to-settle latency, await time included. *)
  let run_job tk f =
    let s = tk.srv in
    if Atomic.get s.dropping then ignore (drop s tk Shutdown)
    else
      let start = Clock.now () in
      let expired = match tk.t_deadline with Some dl -> start > dl | None -> false in
      if expired then ignore (drop s tk Deadline)
      else if claim tk then begin
        let l = s.by_lane.(lane_idx tk.tk_lane) in
        let lat = s.lat.(lane_idx tk.tk_lane) in
        Atomic.incr l.l_started;
        Log_histogram.Sharded.record lat.queue_h ~shard:(slot s) (start - tk.submitted);
        let raised =
          match f () with
          | v ->
              Fiber.Promise.fulfil tk.promise (Returned v);
              false
          | exception e ->
              Fiber.Promise.fulfil tk.promise (Raised e);
              true
        in
        let settle = Clock.now () in
        (* Deadline-miss accounting: the ticket settled (either way)
           past its absolute deadline.  A drop before the claim is a
           cancellation, not a miss — it never ran. *)
        (match tk.t_deadline with
        | Some dl when settle > dl ->
            Atomic.incr l.l_misses;
            (* The worker that settled the job counts the miss. *)
            Option.iter
              (fun c -> Counters.incr c Counters.deadline_misses)
              (Worker.exec_counters ())
        | _ -> ());
        (* The settle may run on a different worker (or pool) than the
           start when the body suspended and migrated: record into the
           settling worker's slot. *)
        let shard = slot s in
        Log_histogram.Sharded.record lat.run_h ~shard (settle - start);
        Log_histogram.Sharded.record lat.sojourn_h ~shard (settle - tk.submitted);
        (* The ledger moves last: a [drain] that sees it settled also
           sees every latency sample. *)
        Atomic.incr (if raised then l.l_exceptions else l.l_completed);
        Parking.wake_all s.completion
      end
      (* else: cancelled between dequeue and claim — the canceller
         counted and signalled. *)

  let refuse l ~count_reject why =
    if count_reject then Atomic.incr l.l_rejected;
    Error why

  (* [l_accepted] is raised before admission is re-checked and before the
     push.  With [drain]'s store-then-read of the same two atomics this is
     a Dekker pair: either the re-check sees admission closed and rolls
     back, or [drain] counts this task and waits for it.  A task visible
     to workers is therefore always counted.  Every rollback signals, so
     a [drain] that already counted it re-checks the ledger. *)
  let admit s ~count_reject ?(lane = (Bulk : lane)) ?deadline f =
    let l = s.by_lane.(lane_idx lane) in
    if not (Atomic.get s.admitting) then refuse l ~count_reject Draining
    else begin
      let now = Clock.now () in
      let tk =
        {
          claimed = Atomic.make false;
          promise = Fiber.Promise.create ();
          srv = s;
          tk_lane = lane;
          submitted = now;
          t_deadline = Option.map (fun d -> now + Clock.of_s d) deadline;
        }
      in
      Atomic.incr l.l_accepted;
      let target = match lane with Bulk -> s.inbox | Deadline -> s.dl_inbox in
      let refused =
        if not (Atomic.get s.admitting) then Some Draining
        else if Injector.try_push target (fun () -> run_job tk f) then None
        else Some Inbox_full
      in
      match refused with
      | None ->
          note_high_water s;
          Pool.wake s.pool;
          Ok tk
      | Some why ->
          Atomic.decr l.l_accepted;
          Parking.wake_all s.completion;
          refuse l ~count_reject why
    end

  let cancel tk = drop tk.srv tk Explicit
  let outcome tk = tk.promise
  let poll tk = Fiber.Promise.try_await tk.promise

  (* Inside a request (or any pool task) the perform finds the fiber
     handler: the waiter suspends and frees its worker.  With no fiber
     handler on the stack the perform raises [Unhandled], and the caller,
     an outside domain, parks on [completion]. *)
  let await tk =
    match Fiber.await tk.promise with
    | v -> v
    | exception Effect.Unhandled _ ->
        wait_until tk.srv (fun () -> Fiber.Promise.is_resolved tk.promise);
        Option.get (poll tk)

  (* Wait until every accepted task is settled, once admission is
     closed.  From then on settlements only raise the left side towards
     the final [accepted], and [accepted] only exceeds it by acceptances
     a racing [admit] is about to roll back.  So a snapshot that
     balances is exact: [drain] returns that snapshot rather than a
     later read, which a late rollback could still inflate. *)
  let drain s =
    let last = ref (stats s) in
    wait_until s (fun () ->
        let st = stats s in
        last := st;
        st.completed + st.cancelled + st.exceptions >= st.accepted);
    !last

  (* Join this micropool's workers without dropping queued tasks: a
     sibling shard may still cross-steal them. *)
  let join_workers s = if not (Atomic.exchange s.stopped true) then Pool.shutdown s.pool

  (* Every shard's workers are joined: drop what is left on either lane
     so every accepted task reaches a terminal state.  Each leftover job
     runs here, sees [dropping] and cancels its ticket with [Shutdown]. *)
  let drop_queued s =
    Atomic.set s.dropping true;
    let rec drop_all inbox =
      match Injector.try_pop inbox with
      | Some job ->
          job ();
          drop_all inbox
      | None -> ()
    in
    drop_all s.dl_inbox;
    drop_all s.inbox
end

open Serve

type t = {
  serves : Serve.t array;
  shards : int;
  lat : lane_lat array;  (* the group-wide histograms every serve shares *)
  (* Round-robin cursor for keyless routing; one fetch-and-add per
     submission, on its own cache line. *)
  rr : int Atomic.t;
  (* Per-shard admission histogram (the shard_route telemetry): which
     shard each accepted submission was routed to.  One padded atomic per
     shard — submitters from many domains bump them concurrently. *)
  routed : int Atomic.t array;
}

(* ------------------------------------------------------------------ *)
(* Cross-shard stealing                                                *)

(* A worker domain belongs to exactly one shard's pool, so domain-local
   storage gives each thief its own victim generator with no indexing
   protocol, created on the thief's first cross-shard trip. *)
let thief_seed = Atomic.make 0

let thief_rng : Abp_stats.Rng.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let n = Atomic.fetch_and_add thief_seed 1 in
      Abp_stats.Rng.create ~seed:(Int64.of_int (0x51ED + (n * 0x9E37))) ())

(* The closures below are built before the serve array exists (each
   serve's pool needs its overflow source at creation), so they read the
   array through [group], set once after construction.  A worker that
   races construction sees [[||]] and treats the topology as unsharded —
   no remote work, nothing pending. *)

(* The [i]-th of shard [my]'s siblings, counted from sibling [r]. *)
let sibling serves my r i =
  let j = (r + i) mod (Array.length serves - 1) in
  serves.(if j >= my then j + 1 else j)

let rec deadline_scan serves my r i =
  if i = Array.length serves - 1 then None
  else
    match Injector.try_pop (sibling serves my r i).dl_inbox with
    | Some _ as got -> got
    | None -> deadline_scan serves my r (i + 1)

(* One cross-shard attempt per trip on which every intra-shard source
   came up empty, as Figure 3's thief makes one attempt per trip; the
   worker's idle ladder paces the trips.  Every sibling's deadline lane
   comes first, so a relief thief never takes bulk work while
   deadline-class requests queue anywhere in the group: polling one
   random sibling's lane per trip doubled the 4-shard deadline sojourn
   p99 (EXPERIMENTS.md, E30).  The scan starts at a uniformly random
   sibling, which then also gets the rest of the attempt: one random
   worker's deque top, then its bulk lane.  A stolen job closes over its
   home shard's ticket and counters, so the per-shard conservation
   invariant is unaffected by where it runs. *)
let cross_take group my () =
  let serves = Atomic.get group in
  if Array.length serves <= 1 then None
  else
    let rng = Domain.DLS.get thief_rng in
    let r = Abp_stats.Rng.int rng (Array.length serves - 1) in
    match deadline_scan serves my r 0 with
    | Some _ as got -> got
    | None -> (
        let s = sibling serves my r 0 in
        match Pool.steal_from s.pool ~victim:(Abp_stats.Rng.int rng (Pool.size s.pool)) with
        | Some _ as got -> got
        | None -> Injector.try_pop s.inbox)

(* Advisory view for the parking protocol: is there anything a
   cross-shard steal could still acquire?  O(total workers), but only
   consulted when a thief is about to block. *)
let cross_pending group my () =
  let serves = Atomic.get group in
  let k = Array.length serves in
  let shard_has j =
    j <> my
    && begin
         let s = serves.(j) in
         inbox_depth s > 0
         ||
         let n = Pool.size s.pool in
         let rec go w = w < n && (Pool.deque_size s.pool w > 0 || go (w + 1)) in
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

let create ?processes ?park_after ?yield_kind ?gates ?inbox_capacity ?traces ~shards () =
  if shards < 1 then invalid_arg "Shard.create: shards >= 1 required";
  (match gates with
  | Some a when Array.length a <> shards ->
      invalid_arg "Shard.create: gates must have one entry per shard"
  | _ -> ());
  (match traces with
  | Some a when Array.length a <> shards ->
      invalid_arg "Shard.create: traces must have one entry per shard"
  | _ -> ());
  (* Resolved here, with {!Pool.create}'s default, because the
     histograms need one slot per worker of the group before the first
     pool starts. *)
  let processes = Option.value processes ~default:(Domain.recommended_domain_count ()) in
  if processes < 1 then invalid_arg "Shard.create: processes >= 1 required";
  let lat = make_lat ~slots:(shards * processes) in
  let group = Atomic.make [||] in
  let serves =
    Array.init shards (fun i ->
        let overflow =
          if shards = 1 then None
          else
            Some
              {
                Pool.take = cross_take group i;
                pending = cross_pending group i;
                note = note_cross;
                event = Some Abp_trace.Event.Cross;
              }
        in
        Serve.create ~processes ?park_after ?yield_kind
          ?gate:(Option.map (fun a -> a.(i)) gates)
          ?inbox_capacity
          ?trace:(Option.map (fun a -> a.(i)) traces)
          ?overflow ~lat ~group ())
  in
  Atomic.set group serves;
  {
    serves;
    shards;
    lat;
    rr = Padding.atomic 0;
    routed = Array.init shards (fun _ -> Padding.atomic 0);
  }

let shards t = t.shards

let serve t i =
  if i < 0 || i >= t.shards then invalid_arg "Shard.serve: shard index out of range";
  t.serves.(i)

let size t = Array.fold_left (fun acc s -> acc + Pool.size s.pool) 0 t.serves

(* ------------------------------------------------------------------ *)
(* Routing and submission                                              *)

(* Equal keys always land on the same shard: the shard count never
   changes after [create]. *)
let shard_of_key t key = Hashtbl.hash key mod t.shards

let wake_siblings t i = Array.iteri (fun j s -> if j <> i then Pool.wake s.pool) t.serves

let route t = function
  | Some key -> shard_of_key t key
  | None -> Atomic.fetch_and_add t.rr 1 land max_int mod t.shards

(* One admission attempt on the shard [key] routes to.  The
   empty->nonempty transition of the target inbox is detected against
   the pre-push depth: if this submission is (racily) the one that made
   it nonempty, every sibling pool is woken so a parked thief of an idle
   shard can cross-steal it — [admit] itself only wakes its own pool.
   Waking is cheap when nobody is parked (one atomic read per sibling),
   and over-waking is harmless.  Only [drain] and [shutdown] stop
   admission, so a [Draining] refusal is final. *)
let submit_on ~count_reject t ?key ?lane ?deadline f =
  let i = route t key in
  let s = t.serves.(i) in
  let was_empty = inbox_depth s = 0 in
  match admit s ~count_reject ?lane ?deadline f with
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
  | Error Draining -> failwith "Shard.submit: admission stopped (draining or shut down)"
  | Error Inbox_full ->
      Domain.cpu_relax ();
      submit t ?key ?lane ?deadline f

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let sum_stats =
  Array.fold_left
    (fun a b ->
      {
        accepted = a.accepted + b.accepted;
        completed = a.completed + b.completed;
        rejected = a.rejected + b.rejected;
        cancelled = a.cancelled + b.cancelled;
        exceptions = a.exceptions + b.exceptions;
        suspended = a.suspended + b.suspended;
      })
    { accepted = 0; completed = 0; rejected = 0; cancelled = 0; exceptions = 0; suspended = 0 }

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
      st.accepted = st.completed + st.cancelled + st.exceptions + st.suspended)
    t.serves

let lane_stats t lane =
  Array.fold_left
    (fun a s ->
      let b = Serve.lane_stats s lane in
      {
        lane_accepted = a.lane_accepted + b.lane_accepted;
        lane_completed = a.lane_completed + b.lane_completed;
        lane_rejected = a.lane_rejected + b.lane_rejected;
        lane_cancelled = a.lane_cancelled + b.lane_cancelled;
        lane_exceptions = a.lane_exceptions + b.lane_exceptions;
        lane_misses = a.lane_misses + b.lane_misses;
      })
    {
      lane_accepted = 0;
      lane_completed = 0;
      lane_rejected = 0;
      lane_cancelled = 0;
      lane_exceptions = 0;
      lane_misses = 0;
    }
    t.serves

let latency_of_histogram h =
  if Log_histogram.count h = 0 then None
  else
    let q p = float_of_int (Log_histogram.quantile h p) /. 1e9 in
    Some
      {
        samples = Log_histogram.count h;
        mean = Log_histogram.mean h /. 1e9;
        p50 = q 0.5;
        p90 = q 0.9;
        p99 = q 0.99;
        p999 = q 0.999;
        max =
          (match Log_histogram.max_recorded h with
          | Some v -> float_of_int v /. 1e9
          | None -> 0.0);
      }

(* The histograms are group-wide, so a merge of one lane's slots is the
   union of every shard's samples, not a per-shard average. *)
let lane_sojourn_hist t lane = Log_histogram.Sharded.merged t.lat.(lane_idx lane).sojourn_h
let lane_sojourn_latency t lane = latency_of_histogram (lane_sojourn_hist t lane)
let route_counts t = Array.map Atomic.get t.routed
let inbox_depths t = Array.map inbox_depth t.serves

(* Every shard's per-worker counters in one aggregate. *)
let totals t =
  Counters.sum (Array.concat (Array.to_list (Array.map (fun s -> Pool.counters s.pool) t.serves)))

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
  Array.iter (fun s -> Atomic.set s.admitting false) t.serves;
  (* Parked thieves must come back for the remaining inbox tasks. *)
  Array.iter (fun s -> Pool.wake s.pool) t.serves;
  sum_stats (Array.map Serve.drain t.serves)

(* Shutdown ordering: join ALL pools before dropping ANY queue.  A task
   queued on shard [i] may be cross-stolen and running on shard [j]'s
   worker; only once every worker domain is joined is "still queued"
   terminal, and the global no-task-runs-after-shutdown guarantee
   carries over from the single-pool case. *)
let shutdown t =
  Array.iter (fun s -> Atomic.set s.admitting false) t.serves;
  Array.iter join_workers t.serves;
  Array.iter drop_queued t.serves

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let pp_latency ppf l =
  Fmt.pf ppf "n=%d mean %.3fms p50 %.3fms p90 %.3fms p99 %.3fms p999 %.3fms max %.3fms" l.samples
    (l.mean *. 1e3) (l.p50 *. 1e3) (l.p90 *. 1e3) (l.p99 *. 1e3) (l.p999 *. 1e3) (l.max *. 1e3)

(* One latency line over both lanes of the [pick]ed histogram. *)
let pp_merged name pick ppf t =
  let h lane = Log_histogram.Sharded.merged (pick t.lat.(lane_idx lane)) in
  match latency_of_histogram (Log_histogram.merge (h Bulk) (h Deadline)) with
  | Some l -> Fmt.pf ppf "%s %a@." name pp_latency l
  | None -> Fmt.pf ppf "%s no samples@." name

let pp_report ppf t =
  let st = stats t in
  let c = totals t in
  Fmt.pf ppf "=== shard report (%d shards, %d workers total) ===@." t.shards (size t);
  Fmt.pf ppf "accepted %d  completed %d  rejected %d  cancelled %d  exceptions %d  suspended %d@."
    st.accepted st.completed st.rejected st.cancelled st.exceptions st.suspended;
  Fmt.pf ppf "cross-shard: polls %d  steals %d  tasks %d@."
    (Counters.get c Counters.cross_polls)
    (Counters.get c Counters.cross_shard_steals)
    (Counters.get c Counters.cross_stolen_tasks);
  Array.iteri
    (fun i s ->
      let sst = Serve.stats s in
      Fmt.pf ppf
        "shard %d: routed %d  accepted %d  completed %d  cancelled %d  exceptions %d  \
         inbox depth %d (high-water %d, capacity %d per lane)@."
        i
        (Atomic.get t.routed.(i))
        sst.accepted sst.completed sst.cancelled sst.exceptions (inbox_depth s)
        (Atomic.get s.high_water) (Injector.capacity s.inbox))
    t.serves;
  pp_merged "queue latency:" (fun l -> l.queue_h) ppf t;
  pp_merged "run latency:  " (fun l -> l.run_h) ppf t;
  List.iter
    (fun lane ->
      let ls = lane_stats t lane in
      if ls.lane_accepted > 0 || ls.lane_rejected > 0 then begin
        Fmt.pf ppf "%s lane: accepted %d  completed %d  rejected %d  cancelled %d  exceptions %d@."
          (lane_name lane) ls.lane_accepted ls.lane_completed ls.lane_rejected ls.lane_cancelled
          ls.lane_exceptions;
        Option.iter
          (Fmt.pf ppf "%s sojourn: %a@." (lane_name lane) pp_latency)
          (lane_sojourn_latency t lane)
      end)
    lanes
