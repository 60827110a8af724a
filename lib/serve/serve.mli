(** Persistent task-serving layer over the Hood work-stealing pool.

    {!Abp_hood.Pool} runs one closed fork-join job launched from inside
    [Pool.run]; this module turns the same pool into a {e service}:
    every worker (including worker 0) is a spawned domain, and work
    arrives from arbitrary outside domains through bounded
    multi-producer {!Injector} inboxes that idle workers poll — after
    their own deque and one steal attempt, keeping the paper's Figure 3
    priority order.  Submitted tasks run in full worker context, so they
    may use {!Abp_hood.Future} and {!Abp_hood.Par} freely: a submitted
    request fans out across the pool by ordinary work stealing.

    {2 Lanes}

    There are two admission lanes, each with its own inbox:
    {!lane.Bulk} (the default) and {!lane.Deadline} for latency-critical
    requests.  The worker-side arbiter polls the deadline lane {e
    first}, draining it in earliest-deadline-first order (per drained
    batch — "EDF-ish"; the EDF key is the absolute deadline when given,
    else the submission time).  An anti-starvation credit guarantees the
    bulk lane at least a 1-in-4 share of non-empty polls under sustained
    deadline traffic.  Per-lane admission counters ({!lane_stats}) and
    per-lane latency histograms keep the two classes separately
    observable; the lane-wise conservation invariant mirrors the global
    one.

    {2 Admission control}

    The inboxes are bounded: {!try_submit} returns [Error Inbox_full]
    (backpressure) instead of queueing unboundedly, and {!submit} blocks
    until the inbox has room.  A per-task relative [deadline] drops the
    task (best-effort, observed when a worker dequeues it) if it is
    still queued when it expires; {!cancel} drops a not-yet-started task
    explicitly.  Started tasks always run to completion.

    {2 Clock and latency}

    Timestamps come from the monotonic nanosecond clock
    {!Abp_trace.Clock.now}; deadlines are measured against it.
    Latencies are recorded into per-worker-sharded log-scale histograms
    ({!Abp_stats.Log_histogram.Sharded}) — plain writes into the
    executing worker's own shard, no shared atomics on the record path —
    merged at report time, with bounded relative quantile error instead
    of a bounded sample window.

    {2 Lifecycle}

    {!create} starts the workers; {!drain} stops admission, runs
    everything already accepted and reports {!stats}; {!shutdown} stops
    the workers (started tasks finish, queued tasks are dropped as
    [Cancelled Shutdown]) — no task runs after [shutdown] returns.  The
    conservation invariant, checked by the test suite under multi-domain
    submission stress:

    {[ accepted = completed + cancelled + exceptions ]}

    holds once the service has drained or shut down, with [rejected]
    counting only refused (never-accepted) submissions.

    {2 Suspendable requests}

    Request bodies run under a fiber handler ({!Abp_fiber.Fiber}): a
    body may [await] a promise (a downstream backend, a future join);
    while it waits, its continuation is parked on the promise and the
    worker serves other work.  A suspended request is neither completed
    nor cancelled, so the invariant gains a term — at every quiescent
    point

    {[ accepted = completed + cancelled + exceptions + suspended ]}

    collapsing to the old identity at {!drain}, which can only finish
    once every promise a request awaits has been resolved (resolving
    them is the caller's or backend's responsibility; drain blocks
    forever on a promise nobody will fulfil).  {!shutdown} with parked
    continuations leaves their tickets [Started] — never terminal —
    and their resumes are dropped with the pool.  {!submit_async}
    closes the loop outward: admission itself returns a promise,
    fulfilled with the request's outcome, that other fibers may
    [await]. *)

type t

type lane =
  | Bulk  (** default lane: throughput-oriented background work *)
  | Deadline
      (** high-priority lane: polled first by workers, drained in
          EDF-ish order *)

type reason =
  | Deadline  (** still queued when its deadline expired *)
  | Explicit  (** dropped by {!cancel} before it started *)
  | Shutdown  (** still queued when {!shutdown} stopped the workers *)

type 'a outcome = Returned of 'a | Raised of exn | Cancelled of reason

type reject =
  | Inbox_full  (** backpressure: the bounded injector inbox is full *)
  | Draining  (** admission stopped by {!drain} or {!shutdown} *)

type 'a ticket
(** A handle for one submitted task. *)

type stats = {
  accepted : int;  (** submissions that entered an inbox *)
  completed : int;  (** tasks that ran and returned normally *)
  rejected : int;  (** submissions refused (full inbox or draining) *)
  cancelled : int;  (** accepted tasks dropped before starting *)
  exceptions : int;  (** tasks that ran and raised *)
  suspended : int;
      (** requests currently parked on a promise (started, not yet
          settled) — the await-aware term; 0 after {!drain} *)
}

type lane_stats = {
  lane_accepted : int;
  lane_completed : int;
  lane_rejected : int;
  lane_cancelled : int;
  lane_exceptions : int;
  lane_misses : int;
      (** settlements (completions or exceptions) that landed past the
          ticket's absolute deadline; not a conservation term — a miss
          is a settled request that was merely late.  Drops before the
          claim count as cancellations, never misses. *)
}
(** Per-lane admission counters.  Once drained/shut down,
    [lane_accepted = lane_completed + lane_cancelled + lane_exceptions]
    holds per lane (the [suspended] gauge is service-global). *)

type latency = {
  samples : int;  (** observations recorded *)
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  max : float;
}
(** Seconds; quantiles from the merged log-scale histogram, accurate to
    its bounded relative error (< 1% at the default resolution). *)

val lane_name : lane -> string
(** ["bulk"] / ["deadline"]. *)

val lanes : lane list
(** Both lanes, bulk first. *)

val create :
  ?processes:int ->
  ?park_threshold:int ->
  ?batch:int ->
  ?yield_kind:Abp_hood.Pool.yield_kind ->
  ?gate:Abp_hood.Pool.gate_hook ->
  ?inbox_capacity:int ->
  ?trace:Abp_trace.Sink.t ->
  ?overflow:Abp_hood.Pool.source ->
  unit ->
  t
(** Start the service: a {!Abp_hood.Pool} in [spawn_all] mode (all
    [processes] workers are domains) wired to two fresh injector inboxes
    (bulk and deadline lane) of [inbox_capacity] slots each (default
    1024, rounded up to a power of two).  The pool gets two sources
    ({!Abp_hood.Pool.source}) after its resume inbox: the lane arbiter
    over both inboxes, then [overflow] if given — {!Shard}'s cross-shard
    source, so this service's idle workers relieve sibling shards only
    after every intra-shard source came up empty.  [batch] (default 0 =
    off) enables batched work transfer in the pool
    ({!Abp_hood.Pool.create}): an idle worker drains up to [batch]
    submissions per poll ({!Injector.try_pop_n}) — running one and
    spreading the rest through its own deque for stealing — and thieves
    steal up to [batch] tasks at a time; a drained deadline batch is EDF
    sorted before it spreads.  [yield_kind] and [gate] are
    forwarded to the pool, so a service can run under the
    multiprogramming harness ({!Abp_mp}): an adversary may suspend
    workers mid-service, and the drain conservation invariant must
    still hold — reopen the gates ({!Abp_mp.Controller.stop}) before
    {!shutdown}.  [processes], [park_threshold] and [trace] are passed
    to {!Abp_hood.Pool.create}; with [trace] attached, lane-source
    polls/acquisitions appear in the per-worker
    [inject_polls]/[inject_tasks]/[inject_batches] counters, lane
    arbitration in [lane_polls]/[lane_tasks], and as [Inject] events in
    the Chrome export. *)

val size : t -> int
(** Worker count [P]. *)

val try_submit :
  t -> ?lane:lane -> ?deadline:float -> (unit -> 'a) -> ('a ticket, reject) result
(** Admit a task, or refuse it without blocking.  [lane] (default
    [Bulk]) selects the admission lane.  [deadline] is relative (seconds
    from now); an admitted task still queued past its deadline is
    dropped as [Cancelled Deadline]; in the deadline lane it is also the
    EDF ordering key.  Every refusal increments [rejected].  Callable
    from any domain. *)

val try_submit_quiet :
  t -> ?lane:lane -> ?deadline:float -> (unit -> 'a) -> ('a ticket, reject) result
(** As {!try_submit} but a refusal does {e not} increment [rejected] —
    the building block for blocking submit loops ({!submit},
    {!Shard.submit}) whose transient full-inbox probes are backpressure,
    not refusals. *)

val submit : t -> ?lane:lane -> ?deadline:float -> (unit -> 'a) -> 'a ticket
(** Like {!try_submit} but blocks (spinning politely) while the inbox is
    full, so a full inbox exerts backpressure on the submitter instead
    of rejecting.  The wait does not inflate [rejected].
    @raise Failure if admission has been stopped by {!drain} or
    {!shutdown}. *)

val try_submit_async :
  t ->
  ?lane:lane ->
  ?deadline:float ->
  (unit -> 'a) ->
  ('a outcome Abp_fiber.Fiber.Promise.t, reject) result
(** Promise-returning admission: like {!try_submit}, but the handle is
    a promise fulfilled with the request's outcome at its terminal
    transition (completion, exception, or any [Cancelled _] drop).  A
    fiber — e.g. another request — can [await] it without occupying a
    worker; external domains can poll it with
    {!Abp_fiber.Fiber.Promise.try_await}.  Refusals count in
    [rejected]. *)

val try_submit_async_quiet :
  t ->
  ?lane:lane ->
  ?deadline:float ->
  (unit -> 'a) ->
  ('a outcome Abp_fiber.Fiber.Promise.t, reject) result
(** As {!try_submit_async} but refusals do not inflate [rejected] — the
    building block for blocking async submit loops ({!submit_async},
    {!Shard.submit_async}). *)

val submit_async :
  t -> ?lane:lane -> ?deadline:float -> (unit -> 'a) -> 'a outcome Abp_fiber.Fiber.Promise.t
(** Blocking-admission variant of {!try_submit_async}: retries a full
    inbox like {!submit} (without inflating [rejected]).
    @raise Failure if admission has been stopped by {!drain} or
    {!shutdown}. *)

val suspended : t -> int
(** Requests currently suspended on promises (the [suspended] stats
    term): advisory while workers run, exact at quiescent points, 0
    after a completed {!drain}. *)

val cancel : 'a ticket -> bool
(** Best-effort cancellation: [true] iff the task had not started and is
    now dropped as [Cancelled Explicit].  [false] if it already started,
    finished, or was already dropped. *)

val ticket_lane : 'a ticket -> lane
(** The lane the ticket was admitted on. *)

val poll : 'a ticket -> 'a outcome option
(** Non-blocking status: [None] while queued or running. *)

val await : 'a ticket -> 'a outcome
(** Block until the task finishes or is dropped.  Parks on a condition
    variable between checks; callable from any domain (including inside
    another submitted task, though beware self-deadlock at [P = 1]). *)

val drain : t -> stats
(** Stop admission (subsequent submissions are [Draining]-rejected), run
    every task already accepted, and return the final {!stats}, for
    which [accepted = completed + cancelled + exceptions] holds.
    Idempotent; admission cannot be re-opened. *)

val shutdown : t -> unit
(** Stop admission, join the worker domains (tasks already started run
    to completion) and drop every still-queued task (both lanes) as
    [Cancelled Shutdown].  No task runs after [shutdown] returns.
    Idempotent.  Call {!drain} first for a graceful stop.
    Equivalent to {!join_workers} followed by {!drop_queued}. *)

val stop_admission : t -> unit
(** Stop admission only: subsequent submissions are [Draining]-rejected,
    accepted work keeps running.  The first phase of a multi-shard
    drain/shutdown — {!Shard} stops admission on {e every} shard before
    waiting on any, so no shard keeps feeding tasks that another shard's
    thieves could cross-steal mid-stop.  Idempotent. *)

val resume_admission : t -> unit
(** Reopen admission after {!stop_admission} — the elastic supervisor's
    reactivation path.  A no-op once workers have been joined
    ({!drain}'s admission stop is also permanent in {!Shard}'s usage:
    the supervisor never reactivates a closing topology).
    Idempotent. *)

val join_workers : t -> unit
(** Stop admission and join this service's worker domains {e without}
    dropping queued tasks.  In a sharded topology, queued tasks of a
    still-running sibling may legitimately be cross-stolen; dropping
    must wait until every shard's workers are joined.  Call
    {!drop_queued} afterwards to reach terminal states.  Idempotent. *)

val drop_queued : t -> unit
(** Drop every still-queued task (both lanes) as [Cancelled Shutdown].
    Only meaningful once no worker of any pool can still dequeue from
    this service's inboxes (after {!join_workers} on all shards);
    {!Shard} sequences this globally. *)

val steal_inbox : t -> int -> (unit -> unit) list
(** [steal_inbox s n] removes up to [n] queued jobs from [s]'s inboxes —
    deadline lane first, in EDF order — and returns their run closures:
    the cross-shard overflow entry point used by a sibling shard's
    overflow source ({!Abp_hood.Pool.source}).  The jobs keep their closures over
    [s]'s tickets and counters, so [s]'s conservation invariant holds no
    matter which pool runs them (the runner's pool counts them in its
    own cross-shard telemetry).  Returns [[]] for [n <= 0].  Callable
    from any domain. *)

val steal_inbox_deadline : t -> int -> (unit -> unit) list
(** Like {!steal_inbox} but draining the {e deadline lane only} (EDF
    order): the lane-aware cross-steal path uses it to relieve a
    sibling's deadline burst without touching its bulk backlog. *)

val stats : t -> stats
(** Advisory snapshot while running; exact after {!drain}/{!shutdown}. *)

val lane_stats : t -> lane -> lane_stats
(** Per-lane admission counters; same advisory/exact regime as
    {!stats}. *)

val inbox_depth : t -> int
(** Combined injector depth gauge (both lanes): tasks accepted but not
    yet dequeued. *)

val lane_depth : t -> lane -> int
(** One lane's injector depth gauge. *)

val inbox_high_water : t -> int
(** Maximum combined inbox depth observed at submission time. *)

val inbox_capacity : t -> int
(** Per-lane inbox capacity (both lanes share the setting). *)

val queue_latency : t -> latency option
(** Submission-to-start latency over both lanes; [None] before the first
    task starts. *)

val run_latency : t -> latency option
(** Start-to-settle latency over both lanes (await time included for
    suspendable requests). *)

val sojourn_latency : t -> latency option
(** Submission-to-settle latency over both lanes — the client-visible
    tail. *)

val lane_queue_latency : t -> lane -> latency option
val lane_run_latency : t -> lane -> latency option

val lane_sojourn_latency : t -> lane -> latency option
(** Per-lane latency summaries; [None] while the lane has no settled
    requests.  Drops are not recorded (no settle timestamp). *)

val lane_queue_hist : t -> lane -> Abp_stats.Log_histogram.t
val lane_run_hist : t -> lane -> Abp_stats.Log_histogram.t

val lane_sojourn_hist : t -> lane -> Abp_stats.Log_histogram.t
(** Merged copies of the per-lane latency histograms (nanoseconds) —
    the mergeable raw form, used by {!Shard} to aggregate across shards
    and by benchmarks for percentile-vs-load curves. *)

val latency_of_histogram : Abp_stats.Log_histogram.t -> latency option
(** Summarize a nanosecond latency histogram (as returned by the
    [*_hist] accessors, possibly merged across services) into seconds;
    [None] on an empty histogram. *)

val pool : t -> Abp_hood.Pool.t
(** The underlying pool, for telemetry accessors ([counters],
    [steal_attempts], ...). *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable service report: admission counters, inbox gauges,
    per-lane latency summaries and log-scale histograms. *)
