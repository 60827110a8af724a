(** Hood: the non-blocking work stealer as a real shared-memory runtime.

    The paper's prototype is the Hood C++ threads library; this module is
    its OCaml 5 counterpart.  A pool owns [processes] workers (OCaml
    domains — the paper's "processes", i.e. kernel threads the OS
    schedules onto processors), each with its own non-blocking
    {!Abp_deque.Atomic_deque} of tasks.  Each worker runs the Figure 3
    scheduling loop: pop the bottom of its own deque; when empty, become
    a thief — pick a uniformly random victim, [popTop] its deque, and
    back off between failed attempts.

    {2 Hot-path design}

    - The scheduling loop is a functor over {!Abp_deque.Spec.DETAILED},
      instantiated once per deque implementation: an operation costs
      one dispatch branch on the pool's deque kind, and each deque
      method inside it is a closure call: without flambda a functor
      body is not inlined, so neither are the deque methods.
    - No generic comparison on the owner path: the deques' [size], the
      lazy [Par] loops and the backoff use int-typed [Int.min]/[Int.max]
      (CI's "No generic compare on the owner path" step checks the
      release objects).
    - All steal accounting is per-worker, in cache-line-padded
      {!Abp_trace.Counters} records: a steal attempt (successful or
      failed) writes no shared atomic.  The aggregate accessors below
      sum the records on demand.
    - The deque's [bot]/[age] words and each worker's counter record
      live on distinct cache lines ({!Abp_deque.Padding}) — no false
      sharing between the owner's pushes and the thieves' CASes.
    - An idle thief backs off adaptively: first the paper's Figure 3
      yield (an OS yield, {!Abp_trace.Clock.yield_cpu}), then a bounded
      exponential spin, and
      after [park_threshold] consecutive empty-handed trips it parks on
      a condition variable until the next [push_task] (which wakes a
      parked thief with a single atomic read on the fast path) or
      {!shutdown}.  [~yield_kind:No_yield] (the E12/E15 ablation)
      disables all three stages: thieves spin hot, exactly the paper's
      "no yield" pathology.

    Tasks are spawned {e parent-first}: [spawn] pushes the child task and
    the parent continues — one of the two orders the paper proves the
    bounds for (Section 3.1); the simulator's ablation covers both.

    Typical use:
    {[
      let pool = Pool.create ~processes:4 () in
      let result = Pool.run pool (fun () -> ... Future.spawn ... ) in
      Pool.shutdown pool
    ]} *)

type t

type deque_impl =
  | Abp  (** the paper's fixed-array deque ({!Abp_deque.Atomic_deque}) *)
  | Circular
      (** the growable Chase-Lev-style extension
          ({!Abp_deque.Circular_deque}) — never overflows *)
  | Locked  (** mutex-protected baseline ({!Abp_deque.Locked_deque}) *)

type yield_kind =
  | No_yield
      (** thieves spin hot between failed steals — no yield, no backoff,
          no parking (the E12/E15 "no yield" ablation, and the paper's
          pathological configuration under an adversarial kernel) *)
  | Yield_local
      (** the default: the Figure 3 yield — [sched_yield] through
          {!Abp_trace.Clock.yield_cpu}, so a peer the OS preempted on
          this core runs now — followed by bounded exponential backoff
          and parking *)
  | Yield_to_random
      (** with a gate attached, each failed steal is reported to the
          {!gate_hook} so the multiprogramming controller can apply the
          paper's yieldToRandom kernel directive: the thief is
          descheduled until a random other process has been granted a
          quantum.  The controller plays the kernel here, so stage 1 is
          a PAUSE plus that report instead of an OS yield; backoff and
          parking follow as under [Yield_local].  Without a gate this
          is exactly [Yield_local]. *)
  | Yield_to_all
      (** as [Yield_to_random] but with the yieldToAll directive: the
          thief is descheduled until every other process has been
          granted a quantum (Theorem 12's requirement against stronger
          adversaries) *)

val yield_kind_name : yield_kind -> string
(** Stable lower-case name ("none", "local", "random", "all") — the
    values accepted by [hoodrun --yield]. *)

type gate_hook = {
  poll : int -> bool;
      (** [poll i] is [true] when worker [i] may proceed.  Called at
          every safe point; must be cheap when open (the harness's gate
          is one atomic read). *)
  wait : int -> float;
      (** [wait i] blocks until worker [i]'s gate reopens and returns
          the seconds spent blocked (integrated into the per-worker
          [gate_wait_ns] telemetry). *)
  on_steal_fail : int -> unit;
      (** [on_steal_fail i] reports a failed steal attempt by worker [i]
          — the stage-1 directed yield under
          {!Yield_to_random}/{!Yield_to_all}.  Must not block. *)
}
(** A cooperative preemption gate (see {!Abp_mp.Gate}): the
    multiprogramming harness's stand-in for the kernel's right to
    deschedule a process.  The pool polls it at {e safe points} only —
    the top of the worker loop (so after each completed task), between
    failed steal attempts, before parking, and inside {!Future.force}
    (once before its work-first pop, then each trip around its help
    loop) — points where the worker holds no
    acquired-but-unpublished tasks: batched steal/source surplus is
    re-pushed onto the worker's own deque {e before} the next safe
    point, so suspending a worker never strands transferable work.

    The gate owner must reopen all gates before {!shutdown} (a worker
    blocked at a gate cannot observe the shutdown flag);
    {!Abp_mp.Controller.stop} does this. *)

type source = {
  take : int -> (unit -> unit) list;
      (** [take n] removes up to [n] tasks ([n >= 1], the pool's
          {!batch_size}); [[]] is the common, cheap answer.  Must not
          block.  A source backed by a one-at-a-time queue may simply
          return one task. *)
  pending : unit -> bool;
      (** advisory: could [take] yield work now?  The parking protocol
          ORs this over every source, so a thief never blocks while a
          source has work. *)
  note : Abp_trace.Counters.t -> int -> unit;
      (** [note c got] is the source's own telemetry, called on every
          poll with the polling worker's counter record and the number
          of tasks taken ([0] when empty). *)
  event : Abp_trace.Event.kind option;
      (** emitted on a non-empty take, with [arg] = tasks taken *)
}
(** A work source beyond the paper's two.  A worker acquires work in
    one fixed order: its own deque's bottom, then {e one} steal attempt
    on a random victim, then the sources in list order — the pool's
    fiber resume inbox first (continuations made ready by an off-pool
    fulfil; it feeds no counter), then the [sources] given to {!create}
    in the order given.  {!Abp_serve.Serve} passes its lane arbiter
    (deadline lane, bulk lane) followed by the cross-shard overflow of
    {!Abp_serve.Shard}, so the full order is own deque, steal, resume
    inbox, lanes, cross-shard — Figure 3's order extended, with a
    balanced shard never paying a cross-shard miss.  The first source
    that yields wins; a multi-task take keeps one task and pushes the
    surplus onto the worker's own deque (stealable, and waking parked
    thieves), like a batched steal.  Producers outside the pool must
    call {!wake} after making a source non-empty. *)

val create :
  ?processes:int ->
  ?deque_capacity:int ->
  ?yield_kind:yield_kind ->
  ?park_threshold:int ->
  ?deque_impl:deque_impl ->
  ?batch:int ->
  ?trace:Abp_trace.Sink.t ->
  ?sources:source list ->
  ?spawn_all:bool ->
  ?gate:gate_hook ->
  unit ->
  t
(** Start a pool with [processes] workers total (default:
    [Domain.recommended_domain_count ()]).  [processes - 1] domains are
    spawned eagerly; the final worker identity is assumed by the caller
    of {!run}.  [deque_capacity] bounds each worker's task deque (the
    ABP deque is a fixed array, as in the paper; default
    {!Abp_deque.Atomic_deque.default_capacity} = 65536 slots, plenty for
    divide-and-conquer workloads whose deque depth is logarithmic).
    [yield_kind] (default {!Yield_local}) selects what a thief does
    between failed steal attempts: [No_yield] disables the Figure 3
    yield and the backoff/parking that extends it (the E15 ablation
    showing thieves monopolizing the processor), and
    [Yield_to_random]/[Yield_to_all] additionally escalate each failed
    steal to the attached [gate] — the paper's kernel yield directives,
    enforced by the {!Abp_mp} controller.  [park_threshold] (default 16) is the number of
    consecutive empty-handed worker-loop trips before an idle thief
    parks; [0] parks after the first failed trip (it still yields
    once), and it does not apply under [No_yield].
    [deque_impl] selects the worker-deque implementation (default
    {!Abp}).  Requires [processes >= 1], [park_threshold >= 0] and
    [batch >= 0].

    [batch] (default 0) enables batched work transfer: a thief asks its
    victim for up to [batch] tasks per steal (the deque grants at most
    half the victim's observed size — {!Abp_deque.Spec.batch_quota}),
    runs one, and pushes the surplus onto its own deque; idle workers
    likewise take up to [batch] tasks per source poll.  [0] and [1]
    both mean classic single-task transfer, the paper's protocol.
    Batching changes {e how many} tasks one acquisition moves, not the
    acquisition order (see {!source}) or the parking protocol.  On the {!Abp} deque the batch
    degrades to single steals (its Figure 5 packed-[age] CAS transfers
    one item by design; see {!Abp_deque.Atomic_deque}) — use
    {!Circular} or {!Locked} for native batching.

    [trace] attaches a telemetry sink (one worker per process, else
    [Invalid_argument]): every worker then counts its pushes, pops,
    steal attempts/successes/empties, [popTop]/[popBottom] CAS failures,
    yields, parks, and deque high-water mark into the sink's per-worker
    records — each record written only by its own domain, so the hot
    path stays contention-free — and, when the sink has an event ring,
    streams [Spawn]/[Steal]/[Execute]/[Idle]/[Yield]/[Park]/[Inject]
    events stamped with the sink's clock.  Read the sink after
    {!shutdown} (aggregation while domains run is racy).

    [sources] (default none) are polled after the resume inbox, in list
    order (see {!source}).

    [spawn_all] (default false) spawns all [processes] workers as
    domains, including worker 0 — the service mode used by
    {!Abp_serve.Serve}, where tasks arrive through [sources]
    instead of a {!run} caller.  {!run} raises [Failure] on such a
    pool.

    [gate] attaches a multiprogramming preemption gate (see
    {!gate_hook}); without one, the scheduling loop pays a single
    never-taken branch per iteration and compiles to the ungated
    code. *)

val size : t -> int
(** The number of processes [P]. *)

val batch_size : t -> int
(** The normalized batch quota: [1] for a classic single-transfer pool
    ([batch] 0 or 1 at {!create}), the configured value otherwise. *)

val yield_kind : t -> yield_kind
(** The thief idle policy selected at {!create}. *)

val deque_size : t -> int -> int
(** [deque_size t i] is the observed size of worker [i]'s deque —
    advisory (racy) while workers run.  The gate controller's view for
    adaptive adversaries; see also {!local_deque_size} for the owning
    worker's own probe. *)

val run : t -> (unit -> 'a) -> 'a
(** [run pool f] enters the pool as worker 0 and evaluates [f]; inside
    [f] the {!Future} and {!Par} operations may be used.  Only one [run]
    may be active at a time (serialized internally); re-entrant calls
    raise [Failure].  Exceptions from [f] are re-raised.  If any task
    raised in a worker loop during the run (see
    {!Abp_trace.Counters.t.task_exceptions}), the first such exception
    is re-raised here after [f] returns.

    [f] runs as a fiber (under the pool's {!Abp_fiber.Fiber} handler),
    so it may [await] promises directly: while the body is suspended,
    the calling domain keeps scheduling pool work and [run] returns
    once the body's continuation — wherever it was resumed — has
    completed. *)

val suspended : t -> int
(** Number of continuations currently parked on promises under this
    pool's fiber handler (see {!Abp_fiber.Fiber}): tasks that performed
    [await] on a pending promise and have not yet been resumed.
    Advisory while workers run; exact at quiescence.  The [suspended]
    term of the serve layer's await-aware conservation invariant. *)

val wake : t -> unit
(** Wake every parked thief (no-op when none are parked: one atomic read
    on the fast path).  External producers call this after making one of
    the pool's [sources] non-empty so a fully parked pool notices the
    new work. *)

val resume_external : t -> (unit -> unit) -> unit
(** [resume_external t k] enqueues the ready continuation [k] on [t]'s
    fiber resume inbox and wakes parked thieves — the same path an
    off-pool {!Abp_fiber.Promise} fulfil takes.  Safe from any domain.
    Honors [t]'s resume redirect when one is installed (see
    {!redirect_resumes}), so a forwarder may target a pool that has
    itself been quiesced in the meantime. *)

val redirect_resumes : t -> ((unit -> unit) -> unit) -> unit
(** [redirect_resumes t fwd] installs [fwd] as the destination for every
    continuation subsequently bound for [t]'s resume inbox, and
    forwards anything already queued through [fwd] before returning —
    atomically with the installation, so no continuation is stranded in
    the window.  The elastic supervisor's migration primitive: [fwd] is
    typically [resume_external target] plus accounting.  [fwd] must not
    re-enter [t]'s own inbox (the supervisor points it at a pool that
    is active at install time and clears it before reactivating [t]).
    Workers of [t] keep running; only the {e external-fulfil} resume
    path is re-homed — a fulfil performed on a worker still pushes onto
    that worker's own deque. *)

val clear_resume_redirect : t -> unit
(** Remove the redirect installed by {!redirect_resumes} (no-op when
    none): new off-pool resumes land in [t]'s own inbox again.  Must be
    called before [t] is put back into admission rotation. *)

val steal_from : t -> victim:int -> max:int -> (unit -> unit) list
(** [steal_from t ~victim ~max] is the external steal entry point: take
    up to [max] tasks off worker [victim]'s deque top, subject to the
    deque's own steal-up-to-half quota ({!Abp_deque.Spec.batch_quota};
    the {!Abp} backend transfers at most one task per call by design).
    Safe to call from any domain — it runs the same lock-free/locked
    [pop_top_n] protocol an intra-pool thief would — and used by the
    sharded topology ({!Abp_serve.Shard}) to let one shard's thief
    relieve another shard's overload.  Returns [[]] when [max <= 0].
    None of [t]'s per-worker counters are touched: the calling pool
    attributes the transfer to its own cross-shard telemetry.
    @raise Invalid_argument if [victim] is out of range. *)

val shutdown : t -> unit
(** Stop the worker domains (waking any parked thieves) and join them.
    Idempotent.  Outstanding tasks are completed before workers exit
    only if they are reachable by stealing; call this after [run] has
    returned.  Re-raises the first recorded task exception, if any is
    still pending. *)

(**/**)

(* Internal API used by Future/Par. *)

type worker
(** A worker identity: the pool plus a process index. *)

val current : unit -> worker
(** The calling domain's worker context.  @raise Failure if the calling
    domain is not a pool worker. *)

val self_id : unit -> int option
(** The calling domain's worker index within its own pool, or [None]
    when not a pool worker — the shard selector for per-worker sharded
    telemetry ({!Abp_stats.Log_histogram.Sharded}): code that may run
    either on a worker or on an external domain picks its
    single-writer slot with it. *)

val note_lane : polls:int -> tasks:int -> unit
(** Attribute deadline-lane arbiter telemetry ([lane_polls] /
    [lane_tasks], {!Abp_trace.Counters}) to the calling worker's own
    counter record.  For the serving layer's lane source, whose [take]
    executes on a worker domain but is written outside the pool; a
    non-worker caller is a no-op. *)

val note_deadline_miss : unit -> unit
(** Count one deadline-lane ticket settled past its deadline
    ([deadline_misses], {!Abp_trace.Counters}) against the calling
    worker's record; a non-worker caller is a no-op. *)

val push_task : worker -> (unit -> unit) -> unit
val try_get_task : worker -> (unit -> unit) option

val pop_own : worker -> (unit -> unit) -> bool
(** [pop_own w task] is the work-first join primitive (owner only):
    pop [w]'s own deque bottom and return [true] iff it is [task]
    (physical equality), which the caller must then run — a hit counts
    one [pops].  Any other task is pushed straight back and [false]
    returned, counting nothing, so [pushes = pops + stolen_tasks] still
    holds; [false] also when the deque is empty or the pop lost its
    last task to a thief (counted in [cas_failures_pop_bottom]).  No
    synchronization beyond the deque's own last-element case. *)

val in_fiber : worker -> bool
(** [Fiber.in_context ()] for the calling domain's own worker, read
    from a flag the worker record caches, without a domain-local-storage
    lookup. *)

val relax : unit -> unit

val run_task : worker -> (unit -> unit) -> unit
(** Execute one task under the worker's pool's fiber handler, exactly
    as the worker loop would.  Helpers running tasks outside the loop
    ({!Future.force}'s out-of-context path) must use this rather
    than calling the closure raw: an un-handled task could otherwise
    perform [Await] into the {e enclosing} task's handler and park the
    helper itself. *)

val fiber_sched : t -> Abp_fiber.Fiber.sched
(** The pool's fiber scheduler: ready continuations are pushed onto the
    current worker's deque (when scheduled from a worker — of this pool
    or, after a cross-shard migration, another) or enqueued on the
    pool's resume inbox and parked thieves woken (when scheduled from
    an external domain, e.g. a backend fulfilling a promise).  Layers
    installing their own handler around task bodies ({!Abp_serve.Serve})
    wrap this record's hooks so the pool's gauge and telemetry keep
    counting. *)

val checkpoint : worker -> unit
(** Gate safe point: blocks while the worker's preemption gate is
    closed (no-op on ungated pools).  {!Future.force} calls this once
    on every pending join, before the join fast path ({!pop_own}, the
    work-first inline run of an unstolen child), so a chain of inline
    joins keeps one safe point per node; out of context it also calls
    it each trip around its help loop, so a worker blocked on a future
    still honours suspensions. *)

val local_deque_size : worker -> int
(** Observed size of the worker's own deque — the lazy-splitting signal
    used by {!Par.parallel_for}: an empty own deque means thieves
    looking here would leave empty-handed, so the loop splits; a
    non-empty one means stealable work already exists, so it runs a
    chunk sequentially instead. *)

val steal_attempts : t -> int
(** Sum of the per-worker [steal_attempts] counters.  Exact once the
    workers have quiesced; advisory while they run. *)

val successful_steals : t -> int
(** Sum of the per-worker [successful_steals] counters; see
    {!steal_attempts}. *)

val parked_workers : t -> int
(** Number of thieves currently parked on the pool's condition variable
    (advisory snapshot). *)

val counters : t -> Abp_trace.Counters.t array
(** Per-worker telemetry records (the sink's records when traced, a
    private set otherwise).  Aggregate with {!Abp_trace.Counters.sum}
    after {!shutdown}. *)
