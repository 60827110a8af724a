(** The server: [k] serving micropools behind one submission API.

    This is the only way to build a server — [create ~shards:1] for a
    single micropool.  Each shard is a {!Abp_hood.Pool} in [spawn_all]
    mode (every worker, worker 0 included, is a spawned domain) fed by
    two bounded multi-producer {!Injector} inboxes that idle workers poll
    after their own deque, one steal attempt and their resume inbox —
    the paper's Figure 3 priority order.  Submitted tasks run in full
    worker context, so they may use {!Abp_hood.Future} and
    {!Abp_hood.Par} freely.  {!Serve} holds the request vocabulary and
    each shard's read views (reached through {!serve}).

    Submission is {!try_submit} (refuse when full) or {!submit} (wait
    under backpressure); both return a {!Serve.ticket}, whose outcome is
    read with {!Serve.poll}, {!Serve.await} or {!Serve.outcome} and
    dropped early with {!Serve.cancel}.  With [k > 1], two cross-shard
    mechanisms keep the topology one logical service:

    {ul
    {- {b Routing}: each request goes to one shard — by the hash of a
       caller-supplied affinity [key] (stable: equal keys always land on
       the same shard), or round-robin when no key is given.  The
       per-shard admission histogram is {!route_counts}.}
    {- {b Cross-shard overflow}: a worker follows the Figure 3 order
       {e within its shard} first — own deque, one intra-shard steal
       attempt, resume inbox, own lanes — and only when all of them come
       up empty does it poll the overflow source, the last entry of its
       pool's source list ({!Abp_hood.Pool.source}).  That poll makes one
       attempt: every sibling shard's deadline lane first, then one
       uniformly random sibling's random worker deque top
       ({!Abp_hood.Pool.steal_from}), then that sibling's bulk lane.  The worker's
       idle ladder (yield, backoff, park) is the only pacing, as between
       Figure 3's steal attempts.  Every cross-shard acquisition moves
       exactly one task.}}

    A cross-stolen job closes over its {e home} shard's ticket and
    ledger, so each shard's conservation invariant holds no matter where
    its tasks run ({!conserved} checks all shards after
    {!drain}/{!shutdown}).  It runs under the fiber handler of the
    worker that starts it, so a fulfil from off the pools (a backend)
    sends its parked continuation to that worker's pool.  The thief's pool counts the transfer in its
    [cross_polls]/[cross_shard_steals]/[cross_stolen_tasks] telemetry
    ({!Abp_trace.Counters}) and emits [Cross] events when traced.

    A submission that flips a shard's inbox from empty to nonempty wakes
    every sibling pool's parked thieves (not just its own shard's), and
    the parking protocol consults the overflow source's pending check — so
    a fully parked shard group never strands a submission on a busy
    sibling (the cross-pool lost-wakeup regression in [test_backoff]).

    {2 The ledger}

    Each shard counts admissions per lane in padded atomics; its totals
    ({!Serve.stats}) are the lane sums, so an admission, a start or a
    settle costs one atomic increment.  Every accepted ticket is claimed
    at most once: by a worker, which counts a start, or by a dropper
    (cancel, deadline, shutdown), which counts a cancellation.  A
    started request that has not settled, running or parked on a
    promise, counts in [suspended], so at every quiescent point

    {[ accepted = completed + cancelled + exceptions + suspended ]}

    per shard: every accepted ticket was claimed exactly once.  Once
    drained it collapses to [accepted = completed + cancelled +
    exceptions] ([rejected] counts only refused submissions).  {!drain} can only finish once every promise a request
    awaits has been resolved; that is the caller's or backend's
    responsibility.  Latencies go into one set of per-lane log-scale
    histograms for the whole server ({!Abp_stats.Log_histogram.Sharded}),
    one slot per (shard, worker) pair — the worker that runs a request,
    wherever it belongs, records into its own slot — merged at report
    time. *)

(** Requests and per-shard views. *)
module Serve : sig
  type t
  (** One shard: its pool, lane inboxes and ledger. *)

  (** {2 Lanes}

      There are two admission lanes, each with its own inbox:
      {!lane.Bulk} (the default) and {!lane.Deadline} for
      latency-critical requests.  The worker-side arbiter polls the
      deadline lane {e first}, one job per poll, FIFO within the lane
      (submission order; a deadline only decides when a still-queued task
      is dropped).  An anti-starvation credit guarantees the bulk lane at
      least a 1-in-4 share of non-empty polls under sustained deadline
      traffic.  Per-lane counters ({!lane_stats}) and per-lane latency
      histograms ({!Abp_serve.Shard.lane_sojourn_latency}) keep the two
      classes separately observable. *)

  type lane =
    | Bulk  (** default lane: throughput-oriented background work *)
    | Deadline
        (** high-priority lane: polled first by workers, FIFO within the
            lane *)

  type reason =
    | Deadline  (** still queued when its deadline expired *)
    | Explicit  (** dropped by {!cancel} before it started *)
    | Shutdown
        (** still queued when {!Abp_serve.Shard.shutdown} stopped the
            workers *)

  type 'a outcome = Returned of 'a | Raised of exn | Cancelled of reason

  type reject =
    | Inbox_full  (** backpressure: the bounded injector inbox is full *)
    | Draining
        (** admission stopped by {!Abp_serve.Shard.drain} or
            {!Abp_serve.Shard.shutdown} *)

  type 'a ticket
  (** One submitted task: a claim word and an outcome promise.  The claim
      settles the race between a worker starting the task and {!cancel}
      (or a deadline or shutdown drop); whoever wins fulfils the promise
      exactly once.  Started tasks always run to completion. *)

  type stats = {
    accepted : int;  (** submissions that entered an inbox *)
    completed : int;  (** tasks that ran and returned normally *)
    rejected : int;  (** submissions refused (full inbox or draining) *)
    cancelled : int;  (** accepted tasks dropped before starting *)
    exceptions : int;  (** tasks that ran and raised *)
    suspended : int;
        (** requests started and not yet settled, running or parked on
            a promise: starts minus [completed] minus [exceptions],
            never negative; 0 after a drain *)
  }
  (** The totals: each field is the sum of the two lanes' counters. *)

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
  (** Per-lane counters, the ledger itself.  Once drained,
      [lane_accepted = lane_completed + lane_cancelled + lane_exceptions]
      holds per lane. *)

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
  (** Wait for the outcome.  A pending ticket's wait performs the fiber
      [Await]: under a {!Abp_fiber.Fiber.run} handler (inside a request
      or any pool task) the caller suspends and its worker serves other
      work — so a request waiting on another request frees its worker,
      even at [P = 1].  When no fiber handler takes the effect (a plain
      domain, also under a foreign effect handler), the perform raises
      [Effect.Unhandled] and the caller parks until the ticket settles
      (the protocol is {!Abp_hood.Parking}'s).  Callable from any
      domain. *)

  val cancel : 'a ticket -> bool
  (** Best-effort cancellation: [true] iff the task had not started and
      is now dropped as [Cancelled Explicit].  [false] if it already
      started, finished, or was already dropped. *)

  (** {2 One shard's views} *)

  val pool : t -> Abp_hood.Pool.t
  (** The shard's pool, for telemetry accessors ([counters],
      [steal_attempts], ...).  With a trace sink attached, lane polls
      appear in the per-worker [inject_polls]/[inject_tasks] and
      [lane_polls]/[lane_tasks] counters and as [Inject] events. *)

  val stats : t -> stats
  (** Advisory snapshot while running; exact after a drain or
      shutdown. *)

  val lane_stats : t -> lane -> lane_stats
  (** Per-lane counters; same advisory/exact regime as {!stats}. *)
end

type t

val create :
  ?processes:int ->
  ?park_after:float ->
  ?yield_kind:Abp_hood.Pool.yield_kind ->
  ?gates:Abp_hood.Pool.gate_hook array ->
  ?inbox_capacity:int ->
  ?traces:Abp_trace.Sink.t array ->
  shards:int ->
  unit ->
  t
(** Start [shards] micropools of [processes] workers each (default
    [Domain.recommended_domain_count ()], so [shards * processes] worker
    domains total).  [park_after] (the seconds a worker
    stays idle before it parks) and [yield_kind] go to each shard's
    {!Abp_hood.Pool.create}, with its defaults.  [inbox_capacity] (default 1024, rounded up to a
    power of two) sizes each lane inbox; the deadline lane is polled
    first and is FIFO within the lane, like the bulk lane.  Inbox slots
    are allocated 256 at a time as tickets first reach them, about 4
    words each, so up to 65 536 the inboxes cost [create] little and
    force no minor collection, and after one lap each shard's two lanes
    take about [8 * inbox_capacity] words: 512K words (4 MB) at 65 536.  [gates] and [traces], when given, must have exactly one entry
    per shard: per-shard preemption gates let the {!Abp_mp} adversary
    suspend shards independently (reopen them with
    {!Abp_mp.Controller.stop} before {!drain} or {!shutdown}), and
    per-shard sinks keep the one-record-per-worker discipline.

    With [shards > 1] each pool's last source is the cross-shard
    overflow: one attempt per trip that exhausted every intra-shard
    source.  With [shards = 1] no overflow source is
    attached.

    @raise Invalid_argument if [shards < 1], [processes < 1], or a
    [gates]/[traces] array length mismatches [shards]. *)

val shards : t -> int
(** Number of micropools [k]. *)

val size : t -> int
(** Total worker count across all shards. *)

val serve : t -> int -> Serve.t
(** [serve t i] is shard [i], for its stats and pool telemetry.
    @raise Invalid_argument if [i] is out of range. *)

val shard_of_key : t -> 'k -> int
(** The shard a given affinity key routes to: [Hashtbl.hash key] modulo
    {!shards}.  Equal keys always share a shard's cache footprint. *)

val try_submit :
  t ->
  ?key:'k ->
  ?lane:Serve.lane ->
  ?deadline:float ->
  (unit -> 'a) ->
  ('a Serve.ticket, Serve.reject) result
(** Admit a task on the shard selected by [key] (or round-robin without
    one), without blocking.  [lane] (default [Bulk]) selects the
    shard-local admission lane.  [deadline] is relative (seconds from
    now): an admitted task still queued past it is dropped as
    [Cancelled Deadline]; it does not reorder the deadline lane, which
    stays FIFO within the lane.
    Every refusal — [Inbox_full], or [Draining] once {!drain} or
    {!shutdown} has begun — counts in [rejected].
    Callable from any domain, including inside a request. *)

val submit :
  t -> ?key:'k -> ?lane:Serve.lane -> ?deadline:float -> (unit -> 'a) -> 'a Serve.ticket
(** Like {!try_submit} but spins politely while the inbox is full.  A
    keyless submission re-routes round-robin on each retry (landing on
    the next shard instead of hammering a full inbox); a keyed
    submission stays on its shard to preserve affinity.  The wait does
    not inflate any shard's [rejected].
    @raise Failure once admission has been stopped by {!drain} or
    {!shutdown}. *)

val stats : t -> Serve.stats
(** Field-wise sum of the per-shard {!Serve.stats}; exact after
    {!drain}/{!shutdown}, advisory while running. *)

val conserved : t -> bool
(** [accepted = completed + cancelled + exceptions + suspended] on
    {e every} shard individually (hence also in aggregate): every
    accepted ticket was claimed exactly once, by a worker that started
    it or by a dropper.  It collapses to the classic
    [accepted = completed + cancelled + exceptions] after {!drain}
    (every promise resolved, so [suspended = 0]).  Meaningful at
    quiescent points (no request still queued) and after
    {!drain}/{!shutdown}. *)

val lane_stats : t -> Serve.lane -> Serve.lane_stats
(** Field-wise sum of the per-shard {!Serve.lane_stats} for one lane. *)

val lane_sojourn_hist : t -> Serve.lane -> Abp_stats.Log_histogram.t
(** The lane's submission-to-settle latency histogram (nanoseconds),
    merged over every (shard, worker) slot — percentiles over the union
    of samples, not per-shard averages.  Once drained, its count equals
    the lane's [lane_completed + lane_exceptions]. *)

val lane_sojourn_latency : t -> Serve.lane -> Serve.latency option
(** Summary of {!lane_sojourn_hist}; [None] while the lane has no
    settled requests. *)

val route_counts : t -> int array
(** Per-shard count of accepted submissions routed to each shard (the
    shard_route histogram). *)

val inbox_depths : t -> int array
(** Per-shard injector depth gauge, both lanes (advisory): tasks
    accepted but not yet dequeued. *)

val cross_polls : t -> int
(** Total overflow-source polls across all pools: each is one
    cross-shard attempt, made on a trip that found no intra-shard work.
    Exact after the group quiesces. *)

val cross_shard_steals : t -> int
(** Total cross-shard acquisitions (polls that moved at least one task);
    always [<= cross_polls]. *)

val cross_stolen_tasks : t -> int
(** Total tasks moved across shard boundaries.  Each acquisition moves
    one task, so this equals {!cross_shard_steals}. *)

val drain : t -> Serve.stats
(** Stop admission on every shard {e first}, then run everything already
    accepted to a terminal state and return the aggregate stats, for
    which the conservation invariant holds shard-wise.  A submission
    racing the drain is either counted and waited for or rolled back
    and refused, so the returned ledger is final ([rejected] aside).
    Blocks until every promise an accepted request awaits is resolved.
    Idempotent. *)

val shutdown : t -> unit
(** Stop admission everywhere, join {e all} shards' worker domains, and
    only then drop still-queued tasks as [Cancelled Shutdown] — a task
    queued on one shard may be running on another shard's worker until
    the joins complete.  No task runs after [shutdown] returns.  Call
    {!drain} first for a graceful stop: a request still parked on a
    promise when the workers are joined never settles, and its ticket
    stays pending.  Idempotent. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable report: aggregate admission counters, cross-shard
    steal telemetry, one line per shard (routing, ledger, inbox depth
    and high-water mark), queue and run latency over every shard, and
    per-lane ledger counters with sojourn latency (deadline misses are
    in {!lane_stats}). *)
