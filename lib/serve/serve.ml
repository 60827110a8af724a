module Pool = Abp_hood.Pool
module Worker = Abp_hood.Worker
module Padding = Abp_deque.Padding
module Fiber = Abp_fiber.Fiber
module Clock = Abp_trace.Clock
module Counters = Abp_trace.Counters
module Log_histogram = Abp_stats.Log_histogram

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

(* What the inboxes hold: the work itself and an abort hook so a
   shutdown can drop still-queued tasks without running them.  Both
   close over the ticket, so the record stays monomorphic. *)
type job = { run : unit -> unit; abort : unit -> unit }

(* Per-lane admission counters, each padded (written from many
   domains).  The lane-wise invariant [lane_accepted = lane_completed +
   lane_cancelled + lane_exceptions] holds once drained/shut down (the
   [suspended] gauge is service-global: the fiber hooks that maintain
   it cannot see lanes). *)
type lane_counters = {
  l_accepted : int Atomic.t;
  l_completed : int Atomic.t;
  l_rejected : int Atomic.t;
  l_cancelled : int Atomic.t;
  l_exceptions : int Atomic.t;
  (* Settlements (completions or exceptions) that landed past the
     ticket's absolute deadline.  Not part of the conservation ledger —
     a miss is a completed request that was merely late. *)
  l_misses : int Atomic.t;
}

(* Per-lane, per-worker-sharded latency histograms (nanoseconds): the
   record path is plain writes into the executing worker's own shard —
   no shared atomics per request — merged at report time. *)
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
  (* Admission counters, each on its own cache line (written from many
     domains).  The invariant [accepted = completed + cancelled +
     exceptions] holds once drained/shut down. *)
  accepted : int Atomic.t;
  completed : int Atomic.t;
  rejected : int Atomic.t;
  cancelled : int Atomic.t;
  exceptions : int Atomic.t;
  high_water : int Atomic.t;
  by_lane : lane_counters array;  (* indexed by [lane_idx] *)
  lat : lane_lat array;  (* indexed by [lane_idx] *)
  (* Bulk anti-starvation credit: every arbiter poll that served the
     deadline lane while bulk work waited accrues one credit; at
     [bulk_credit_period - 1] the next poll drains bulk first and the
     balance resets, guaranteeing bulk at least a 1-in-
     [bulk_credit_period] share of polls under sustained deadline
     traffic. *)
  credit : int Atomic.t;
  (* Completion signalling for [await]/[drain]: terminal transitions
     broadcast, gated by [waiters] so an uncontested completion pays one
     atomic read. *)
  done_lock : Mutex.t;
  done_cond : Condition.t;
  waiters : int Atomic.t;
  (* Requests currently suspended on a promise: their job body
     performed [await], parked its continuation, and has neither
     completed nor been cancelled.  The [suspended] term of the
     await-aware conservation invariant: at every quiescent point
     [accepted = completed + cancelled + exceptions + suspended],
     collapsing to the old identity at drain (when every promise has
     been resolved and suspended = 0). *)
  suspended_now : int Atomic.t;
  (* The serve-level fiber scheduler: the pool's sched with the
     suspend/resume hooks wrapped to maintain [suspended_now].
     Installed around every job body by [make_job] — the innermost
     handler wins, so only top-level request suspensions count here
     (a request's internal future joins park against the same record,
     still counted once per park at the request level). *)
  fsched : Fiber.sched;
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

let signal_done s =
  if Atomic.get s.waiters > 0 then begin
    Mutex.lock s.done_lock;
    Condition.broadcast s.done_cond;
    Mutex.unlock s.done_lock
  end

(* Block until [settled ()]; registered in [waiters] before the final
   re-check under the lock, mirroring the pool's parking protocol, so a
   completion either sees the waiter and broadcasts or completed before
   registration and is seen by the re-check. *)
let wait_until s settled =
  while not (settled ()) do
    Atomic.incr s.waiters;
    Mutex.lock s.done_lock;
    if not (settled ()) then Condition.wait s.done_cond s.done_lock;
    Mutex.unlock s.done_lock;
    Atomic.decr s.waiters
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

let run_of = function Some j -> Some j.run | None -> None

let create ?processes ?park_threshold ?yield_kind ?gate ?(inbox_capacity = 1024) ?trace
    ?overflow () =
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
    run_of
      (if Atomic.get credit >= bulk_credit_period - 1 && not (Injector.is_empty inbox) then
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
         | None -> Injector.try_pop inbox)
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
    Pool.create ?processes ?park_threshold ?yield_kind ?gate ?trace
      ~sources:(lanes :: Option.to_list overflow) ~spawn_all:true ()
  in
  let shards = Pool.size pool in
  (* ~1 h of nanoseconds per histogram: far beyond any realistic
     request latency, so overflow clamping is effectively unreachable
     while the bucket array stays small. *)
  let max_ns = 3600 * Clock.ns_per_s in
  let mk_lat () =
    {
      queue_h = Log_histogram.Sharded.create ~max_value:max_ns ~shards ();
      run_h = Log_histogram.Sharded.create ~max_value:max_ns ~shards ();
      sojourn_h = Log_histogram.Sharded.create ~max_value:max_ns ~shards ();
    }
  in
  let suspended_now = Padding.atomic 0 in
  let base = Worker.fiber_sched pool in
  let fsched =
    {
      base with
      Fiber.on_suspend =
        (fun () ->
          Atomic.incr suspended_now;
          base.Fiber.on_suspend ());
      on_resume =
        (fun () ->
          Atomic.decr suspended_now;
          base.Fiber.on_resume ());
    }
  in
  {
    pool;
    inbox;
    dl_inbox;
    admitting = Atomic.make true;
    stopped = Atomic.make false;
    accepted = Padding.atomic 0;
    completed = Padding.atomic 0;
    rejected = Padding.atomic 0;
    cancelled = Padding.atomic 0;
    exceptions = Padding.atomic 0;
    high_water = Padding.atomic 0;
    by_lane =
      Array.init 2 (fun _ ->
          {
            l_accepted = Padding.atomic 0;
            l_completed = Padding.atomic 0;
            l_rejected = Padding.atomic 0;
            l_cancelled = Padding.atomic 0;
            l_exceptions = Padding.atomic 0;
            l_misses = Padding.atomic 0;
          });
    lat = [| mk_lat (); mk_lat () |];
    credit;
    done_lock = Mutex.create ();
    done_cond = Condition.create ();
    waiters = Padding.atomic 0;
    suspended_now;
    fsched;
  }

let size s = Pool.size s.pool
let pool s = s.pool

let stats s =
  {
    accepted = Atomic.get s.accepted;
    completed = Atomic.get s.completed;
    rejected = Atomic.get s.rejected;
    cancelled = Atomic.get s.cancelled;
    exceptions = Atomic.get s.exceptions;
    suspended = Atomic.get s.suspended_now;
  }

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

let lane_depth s lane =
  Injector.size (match lane with Bulk -> s.inbox | Deadline -> s.dl_inbox)

let inbox_depth s = Injector.size s.inbox + Injector.size s.dl_inbox
let inbox_high_water s = Atomic.get s.high_water

let note_high_water s =
  let d = inbox_depth s in
  let rec go () =
    let cur = Atomic.get s.high_water in
    if d > cur && not (Atomic.compare_and_set s.high_water cur d) then go ()
  in
  go ()

let claim tk = Atomic.compare_and_set tk.claimed false true

(* The promise is fulfilled before the counters move, so a [drain] that
   sees the ledger settled never finds a pending ticket. *)
let drop s tk why =
  claim tk
  && begin
       Fiber.Promise.fulfil tk.promise (Cancelled why);
       Atomic.incr s.cancelled;
       Atomic.incr s.by_lane.(lane_idx tk.tk_lane).l_cancelled;
       signal_done s;
       true
     end

(* The executing worker's shard slot for the latency histograms; an
   off-pool settle (an external domain running the job closure in a
   test) folds into shard 0. *)
let rec_shard () = match Worker.self_id () with Some i -> i | None -> 0

let make_job s tk f =
  let lat = s.lat.(lane_idx tk.tk_lane) in
  let run () =
    (* The whole body — claim, work, settle — runs under the serve
       fiber handler.  If [f] awaits a pending promise, [run] returns
       with the continuation (including the settlement code below)
       parked, and the worker moves on: the ticket stays claimed but
       unsettled, and the request counts in [suspended_now] until its
       resume settles it.  Note that [run_h] therefore measures
       claim-to-settle request latency, await time included. *)
    Fiber.run s.fsched (fun () ->
        let start = Clock.now () in
        let expired = match tk.t_deadline with Some dl -> start > dl | None -> false in
        if expired then ignore (drop s tk Deadline)
        else if claim tk then begin
          let l = s.by_lane.(lane_idx tk.tk_lane) in
          Log_histogram.Sharded.record lat.queue_h ~shard:(rec_shard ()) (start - tk.submitted);
          (match f () with
          | v ->
              Fiber.Promise.fulfil tk.promise (Returned v);
              Atomic.incr s.completed;
              Atomic.incr l.l_completed
          | exception e ->
              Fiber.Promise.fulfil tk.promise (Raised e);
              Atomic.incr s.exceptions;
              Atomic.incr l.l_exceptions);
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
             settling worker's shard. *)
          let shard = rec_shard () in
          Log_histogram.Sharded.record lat.run_h ~shard (settle - start);
          Log_histogram.Sharded.record lat.sojourn_h ~shard (settle - tk.submitted);
          signal_done s
        end
        (* else: cancelled between dequeue and claim — the canceller
           counted and signalled. *))
  in
  let abort () = ignore (drop s tk Shutdown) in
  { run; abort }

let refuse s li ~count_reject why =
  if count_reject then begin
    Atomic.incr s.rejected;
    Atomic.incr s.by_lane.(li).l_rejected
  end;
  Error why

(* [accepted] is raised before admission is re-checked and before the
   push.  With [drain]'s store-then-read of the same two atomics this is
   a Dekker pair: either the re-check sees admission closed and rolls
   back, or [drain] counts this task and waits for it.  A task visible
   to workers is therefore always counted.  Every rollback signals, so
   a [drain] that already counted it re-checks the ledger. *)
let admit s ~count_reject ?(lane = (Bulk : lane)) ?deadline f =
  let li = lane_idx lane in
  if not (Atomic.get s.admitting) then refuse s li ~count_reject Draining
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
    Atomic.incr s.accepted;
    Atomic.incr s.by_lane.(li).l_accepted;
    let target = match lane with Bulk -> s.inbox | Deadline -> s.dl_inbox in
    let refused =
      if not (Atomic.get s.admitting) then Some Draining
      else if Injector.try_push target (make_job s tk f) then None
      else Some Inbox_full
    in
    match refused with
    | None ->
        note_high_water s;
        Pool.wake s.pool;
        Ok tk
    | Some why ->
        Atomic.decr s.accepted;
        Atomic.decr s.by_lane.(li).l_accepted;
        signal_done s;
        refuse s li ~count_reject why
  end

let cancel tk = drop tk.srv tk Explicit
let outcome tk = tk.promise
let poll tk = Fiber.Promise.try_await tk.promise

(* Inside a request (or any pool task) the waiter suspends and frees
   its worker; an outside domain parks on the condition variable. *)
let await tk =
  if Fiber.in_context () then Fiber.await tk.promise
  else begin
    wait_until tk.srv (fun () -> Fiber.Promise.is_resolved tk.promise);
    Option.get (poll tk)
  end

(* Once admission is closed, settlements only raise the left side
   towards the final [accepted], and [accepted] only exceeds it by
   acceptances a racing [admit] is about to roll back.  So a snapshot
   that balances is exact: [drain] returns that snapshot rather than a
   later read, which a late rollback could still inflate. *)
let drain s =
  Atomic.set s.admitting false;
  (* Parked thieves must come back for the remaining inbox tasks. *)
  Pool.wake s.pool;
  let last = ref (stats s) in
  wait_until s (fun () ->
      let st = stats s in
      last := st;
      st.completed + st.cancelled + st.exceptions >= st.accepted);
  !last

let stop_admission s = Atomic.set s.admitting false

(* Another shard's thief takes one queued job, deadline lane first — a
   cross-shard relief thief must not grab bulk work while
   deadline-class requests queue behind it.  The job keeps its closures
   over THIS micropool's ticket and counters, so the per-service
   conservation invariant is unaffected by where it runs. *)
let steal_inbox s =
  match Injector.try_pop s.dl_inbox with
  | Some j -> Some j.run
  | None -> run_of (Injector.try_pop s.inbox)

(* Deadline-lane-only variant: the lane-aware cross-steal path uses it
   to relieve a sibling's deadline burst without touching its bulk
   backlog (and without waiting out the thief's bulk cross-steal
   rate limit). *)
let steal_inbox_deadline s = run_of (Injector.try_pop s.dl_inbox)

let join_workers s =
  Atomic.set s.admitting false;
  if not (Atomic.exchange s.stopped true) then Pool.shutdown s.pool

let drop_queued s =
  (* Workers are joined (or known not to dequeue anymore): drop what is
     left on either lane so every accepted task reaches a terminal
     state. *)
  let rec drop_all inbox =
    match Injector.try_pop inbox with
    | Some j ->
        j.abort ();
        drop_all inbox
    | None -> ()
  in
  drop_all s.dl_inbox;
  drop_all s.inbox

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

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

let lane_hist pick s lane = Log_histogram.Sharded.merged (pick s.lat.(lane_idx lane))
let lane_sojourn_hist = lane_hist (fun l -> l.sojourn_h)
let lane_sojourn_latency s lane = latency_of_histogram (lane_sojourn_hist s lane)

let merged_over_lanes pick s =
  Log_histogram.merge (lane_hist pick s Bulk) (lane_hist pick s Deadline)

let pp_latency ppf l =
  Fmt.pf ppf "n=%d mean %.3fms p50 %.3fms p90 %.3fms p99 %.3fms p999 %.3fms max %.3fms" l.samples
    (l.mean *. 1e3) (l.p50 *. 1e3) (l.p90 *. 1e3) (l.p99 *. 1e3) (l.p999 *. 1e3) (l.max *. 1e3)

let pp_report ppf s =
  let st = stats s in
  Fmt.pf ppf "=== serve report (%d workers) ===@." (size s);
  Fmt.pf ppf "accepted %d  completed %d  rejected %d  cancelled %d  exceptions %d@." st.accepted
    st.completed st.rejected st.cancelled st.exceptions;
  Fmt.pf ppf "inbox: depth %d  high-water %d  capacity %d@." (inbox_depth s)
    (inbox_high_water s) (Injector.capacity s.inbox);
  let q = merged_over_lanes (fun l -> l.queue_h) s in
  let r = merged_over_lanes (fun l -> l.run_h) s in
  (match latency_of_histogram q with
  | Some l -> Fmt.pf ppf "queue latency: %a@." pp_latency l
  | None -> Fmt.pf ppf "queue latency: no samples@.");
  (match latency_of_histogram r with
  | Some l -> Fmt.pf ppf "run latency:   %a@." pp_latency l
  | None -> Fmt.pf ppf "run latency:   no samples@.");
  List.iter
    (fun lane ->
      let ls = lane_stats s lane in
      if ls.lane_accepted > 0 || ls.lane_rejected > 0 then begin
        Fmt.pf ppf "%s lane: accepted %d  completed %d  rejected %d  cancelled %d  exceptions %d  depth %d@."
          (lane_name lane) ls.lane_accepted ls.lane_completed ls.lane_rejected ls.lane_cancelled
          ls.lane_exceptions (lane_depth s lane);
        match lane_sojourn_latency s lane with
        | Some l -> Fmt.pf ppf "%s sojourn: %a@." (lane_name lane) pp_latency l
        | None -> ()
      end)
    lanes;
  if Log_histogram.count q > 0 then Fmt.pf ppf "queue latency histogram (ns): %a@." Log_histogram.pp q;
  if Log_histogram.count r > 0 then Fmt.pf ppf "run latency histogram (ns):   %a@." Log_histogram.pp r
