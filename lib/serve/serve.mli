(** One serving micropool: the building block {!Shard} is made of.

    Build a server with {!Shard.create} ([~shards:1] for a single
    micropool) and submit with {!Shard.try_submit}/{!Shard.submit};
    this module owns what each micropool holds and what a submission
    hands back.  A micropool is a {!Abp_hood.Pool} in [spawn_all] mode
    (every worker, worker 0 included, is a spawned domain) fed by
    bounded multi-producer {!Injector} inboxes that idle workers poll
    after their own deque and one steal attempt — the paper's Figure 3
    priority order.  Submitted tasks run in full worker context, so they
    may use {!Abp_hood.Future} and {!Abp_hood.Par} freely.

    {2 Lanes}

    There are two admission lanes, each with its own inbox:
    {!lane.Bulk} (the default) and {!lane.Deadline} for latency-critical
    requests.  The worker-side arbiter polls the deadline lane {e
    first}, one job per poll, FIFO within the lane (submission order;
    a deadline only decides when a still-queued task is dropped).  An
    anti-starvation credit guarantees the
    bulk lane at least a 1-in-4 share of non-empty polls under sustained
    deadline traffic.  Per-lane counters ({!lane_stats}) and per-lane
    latency histograms keep the two classes separately observable.

    {2 Tickets}

    A submission returns an ['a ticket]: a claim word and an outcome
    promise.  The claim settles the race between a worker starting the
    task and {!cancel} (or a deadline or shutdown drop); whoever wins
    fulfils the promise exactly once.  {!poll} reads the promise,
    {!outcome} hands it out for {!Abp_fiber.Fiber.await}, and {!await}
    suspends the calling fiber when there is one — so a request waiting
    on another request frees its worker, even at [P = 1] — and blocks on
    a condition variable otherwise.  Started tasks always run to
    completion.

    {2 The ledger}

    Admission counters are padded atomics; latencies go into
    per-worker-sharded log-scale histograms
    ({!Abp_stats.Log_histogram.Sharded}) merged at report time.  Request
    bodies run under a fiber handler, and a request parked on a promise
    counts in [suspended], so at every quiescent point

    {[ accepted = completed + cancelled + exceptions + suspended ]}

    collapsing to [accepted = completed + cancelled + exceptions] once
    drained ([rejected] counts only refused submissions).  {!drain} can
    only finish once every promise a request awaits has been resolved;
    that is the caller's or backend's responsibility. *)

type t

type lane =
  | Bulk  (** default lane: throughput-oriented background work *)
  | Deadline
      (** high-priority lane: polled first by workers, FIFO within the
          lane *)

type reason =
  | Deadline  (** still queued when its deadline expired *)
  | Explicit  (** dropped by {!cancel} before it started *)
  | Shutdown  (** still queued when {!Shard.shutdown} stopped the workers *)

type 'a outcome = Returned of 'a | Raised of exn | Cancelled of reason

type reject =
  | Inbox_full  (** backpressure: the bounded injector inbox is full *)
  | Draining  (** admission stopped by {!Shard.drain} or {!Shard.shutdown} *)

type 'a ticket
(** One submitted task: a claim word plus its outcome promise. *)

type stats = {
  accepted : int;  (** submissions that entered an inbox *)
  completed : int;  (** tasks that ran and returned normally *)
  rejected : int;  (** submissions refused (full inbox or draining) *)
  cancelled : int;  (** accepted tasks dropped before starting *)
  exceptions : int;  (** tasks that ran and raised *)
  suspended : int;
      (** requests currently parked on a promise (started, not yet
          settled) — the await-aware term; 0 after a drain *)
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
(** Per-lane counters.  Once drained,
    [lane_accepted = lane_completed + lane_cancelled + lane_exceptions]
    holds per lane (the [suspended] gauge is micropool-wide). *)

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

(** {2 Tickets} *)

val poll : 'a ticket -> 'a outcome option
(** Non-blocking status: [None] while queued or running. *)

val outcome : 'a ticket -> 'a outcome Abp_fiber.Fiber.Promise.t
(** The ticket's outcome promise, fulfilled at its terminal transition
    (completion, exception, or any [Cancelled _] drop).  A fiber — for
    example another request — can {!Abp_fiber.Fiber.await} it without
    occupying a worker. *)

val await : 'a ticket -> 'a outcome
(** Wait for the outcome.  In a fiber context (inside a request or any
    pool task) the caller suspends and its worker serves other work;
    elsewhere it parks on a condition variable.  Callable from any
    domain. *)

val cancel : 'a ticket -> bool
(** Best-effort cancellation: [true] iff the task had not started and is
    now dropped as [Cancelled Explicit].  [false] if it already started,
    finished, or was already dropped. *)

(** {2 The micropool, as {!Shard} drives it} *)

val create :
  ?processes:int ->
  ?park_threshold:int ->
  ?yield_kind:Abp_hood.Pool.yield_kind ->
  ?gate:Abp_hood.Pool.gate_hook ->
  ?inbox_capacity:int ->
  ?trace:Abp_trace.Sink.t ->
  ?overflow:Abp_hood.Pool.source ->
  unit ->
  t
(** Start one micropool; {!Shard.create} calls this once per shard and
    documents the shared options.  The pool gets two sources
    ({!Abp_hood.Pool.source}) after its resume inbox: the lane arbiter
    over both inboxes (of [inbox_capacity] slots each, default 1024,
    rounded up to a power of two; slots are allocated 256 at a time as
    tickets first reach them, about 4 words each, so after one lap the
    two lanes take about [8 * inbox_capacity] words), then [overflow]
    if given — the cross-shard source.  Each poll takes at most one
    submission.  With [trace] attached, lane polls appear in the
    per-worker [inject_polls]/[inject_tasks] and
    [lane_polls]/[lane_tasks] counters and as [Inject] events. *)

val admit :
  t ->
  count_reject:bool ->
  ?lane:lane ->
  ?deadline:float ->
  (unit -> 'a) ->
  ('a ticket, reject) result
(** One admission attempt, without blocking: the per-shard step of
    {!Shard.try_submit} and {!Shard.submit}.  [lane] (default [Bulk])
    selects the inbox; [deadline] is relative (seconds from now) — an
    admitted task still queued past it is dropped as
    [Cancelled Deadline].  [count_reject] decides whether a refusal counts in
    [rejected].  The acceptance is counted before admission is
    re-checked, so a concurrent {!drain} either waits for this task or
    sees it rolled back.  Callable from any domain. *)

val pool : t -> Abp_hood.Pool.t
(** The underlying pool, for telemetry accessors ([counters],
    [steal_attempts], ...). *)

val drain : t -> stats
(** Stop admission, run every task already accepted, and return the
    final {!stats}.  {!Shard.drain} stops admission on every shard
    before calling this on any. *)

val stop_admission : t -> unit
(** Stop admission only: later submissions are [Draining]-refused,
    accepted work keeps running.  Idempotent. *)

val join_workers : t -> unit
(** Stop admission and join this micropool's worker domains {e without}
    dropping queued tasks: a sibling shard may still cross-steal them.
    Idempotent. *)

val drop_queued : t -> unit
(** Drop every still-queued task (both lanes) as [Cancelled Shutdown].
    Only meaningful once no worker of any pool can still dequeue from
    this micropool's inboxes ({!Shard.shutdown} sequences this). *)

val steal_inbox : t -> (unit -> unit) option
(** [steal_inbox s] removes one queued job from [s]'s inboxes —
    deadline lane first — and returns its run closure: the cross-shard
    overflow entry point.  The job keeps its closures over [s]'s ticket
    and counters, so [s]'s ledger holds no matter which pool runs it.
    Callable from any domain. *)

val steal_inbox_deadline : t -> (unit -> unit) option
(** Like {!steal_inbox} but taking from the {e deadline lane only}: the
    lane-aware cross-steal path. *)

(** {2 Telemetry} *)

val stats : t -> stats
(** Advisory snapshot while running; exact after a drain or shutdown. *)

val lane_stats : t -> lane -> lane_stats
(** Per-lane counters; same advisory/exact regime as {!stats}. *)

val inbox_depth : t -> int
(** Combined injector depth gauge (both lanes): tasks accepted but not
    yet dequeued. *)

val lane_depth : t -> lane -> int
(** One lane's injector depth gauge. *)

val inbox_high_water : t -> int
(** Maximum combined inbox depth observed at submission time. *)

val lane_sojourn_hist : t -> lane -> Abp_stats.Log_histogram.t
(** Merged copy of the lane's sojourn histogram (nanoseconds) — the
    mergeable raw form {!Shard} aggregates across shards. *)

val latency_of_histogram : Abp_stats.Log_histogram.t -> latency option
(** Summarize a nanosecond latency histogram into seconds; [None] on an
    empty histogram. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable micropool report: admission counters, inbox gauges,
    queue/run latency summaries, per-lane sojourn and log-scale
    histograms. *)
