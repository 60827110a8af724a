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

    - The scheduling loop exists once ({!Worker}).  [create] selects
      the deque implementation and closes each worker's deque into a
      record of its four operations, so a deque method is one closure
      call whatever [deque_impl] is (without flambda no deque method
      is inlined into the loop in any case).
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
      exponential spin, and once it has been idle for [park_after]
      seconds (5 ms by default) it parks until the next [push_task] or
      {!shutdown} (the protocol, and why a push with nobody parked pays
      one atomic read, are in {!Parking}).  The window is
      time, not a trip count, so that a worker idle only between two
      requests of a serving workload stays awake, at the price of the
      CPU its yields burn (E34).  [~yield_kind:No_yield] (the E12/E15 ablation)
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

type t = Worker.pool

type deque_impl =
  | Abp  (** the paper's fixed-array deque ({!Abp_deque.Atomic_deque}) *)
  | Circular
      (** the growable Chase-Lev-style extension
          ({!Abp_deque.Circular_deque}) — never overflows *)
  | Locked  (** mutex-protected baseline ({!Abp_deque.Locked_deque}) *)

type yield_kind = Worker.yield_kind =
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

type gate_hook = Worker.gate_hook = {
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
    (once before its work-first pop) — points where the worker holds no
    acquired-but-unpublished tasks: every acquisition moves one task,
    which the worker runs before its next safe point, so suspending a
    worker never strands transferable work.

    The gate owner must reopen all gates before {!shutdown} (a worker
    blocked at a gate cannot observe the shutdown flag);
    {!Abp_mp.Controller.stop} does this. *)

type source = Worker.source = {
  take : unit -> (unit -> unit) option;
      (** removes at most one task; [None] is the common, cheap answer.
          Must not block. *)
  pending : unit -> bool;
      (** advisory: could [take] yield work now?  A thief re-checks it,
          over every source, before it parks ({!Parking}'s [ready]), so
          a thief never blocks while a source has work. *)
  note : Abp_trace.Counters.t -> bool -> unit;
      (** [note c hit] is the source's own telemetry, called on every
          poll with the polling worker's counter record and whether the
          take yielded a task. *)
  event : Abp_trace.Event.kind option;  (** emitted on a non-empty take *)
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
    that yields wins.  Producers outside the pool must call {!wake}
    after making a source non-empty. *)

val create :
  ?processes:int ->
  ?deque_capacity:int ->
  ?yield_kind:yield_kind ->
  ?park_after:float ->
  ?deque_impl:deque_impl ->
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
    enforced by the {!Abp_mp} controller.  [park_after] (default
    [5e-3]) is the seconds an idle thief must have been idle, counted
    from its first empty-handed worker-loop trip after a task, before
    it parks; [0.] parks on the first failed trip (it still yields
    once), and it does not apply under [No_yield].
    [deque_impl] selects the worker-deque implementation (default
    {!Abp}).  Requires [processes >= 1] and [park_after >= 0.] (NaN
    is rejected).
    Every acquisition — own-deque pop, steal, source take — moves
    exactly one task, the paper's protocol.

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

val yield_kind : t -> yield_kind
(** The thief idle policy selected at {!create}. *)

val deque_size : t -> int -> int
(** [deque_size t i] is the observed size of worker [i]'s deque —
    advisory (racy) while workers run.  The gate controller's view for
    adaptive adversaries. *)

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
    completed.

    Before [f] starts, the caller runs its own deque empty with owner
    pops only (never a steal): a task an earlier [run] spawned and left
    unforced runs there unless a thief took it, and the final empty pop
    resets the deque's indices (Figure 5).  Without it, tasks stolen
    from worker 0 between runs would leave the fixed-size {!Abp}
    deque's [bot] where they were pushed, and repeated runs would
    overflow it.  Until then such a task stays stealable; after the
    last [run], {!shutdown} runs it. *)

val suspended : t -> int
(** Number of continuations currently parked on promises under this
    pool's fiber handler (see {!Abp_fiber.Fiber}): tasks that performed
    [await] on a pending promise and have not yet been resumed.
    Advisory while workers run; exact at quiescence.  The [suspended]
    term of the serve layer's await-aware conservation invariant. *)

val wake : t -> unit
(** Wake every parked thief ({!Parking.wake_all}).  External producers
    call this after making one of the pool's [sources] non-empty so a
    fully parked pool notices the new work. *)

val steal_from : t -> victim:int -> (unit -> unit) option
(** [steal_from t ~victim] is the external steal entry point: take one
    task off worker [victim]'s deque top.  Safe to call from any domain
    — it runs the same lock-free/locked [popTop] an intra-pool thief
    would ([None] on an empty deque or a lost race) — and used by the
    sharded topology ({!Abp_serve.Shard}) to let one shard's thief
    relieve another shard's overload.
    None of [t]'s per-worker counters are touched: the calling pool
    attributes the transfer to its own cross-shard telemetry.
    @raise Invalid_argument if [victim] is out of range. *)

val shutdown : t -> unit
(** Stop the worker domains (waking any parked thieves) and join them.
    Idempotent.  Call this after [run] has returned.  First the caller
    runs worker 0's deque empty as worker 0, as {!run} does at its
    start, so a task the last [run] spawned and never forced still runs
    (unless [spawn_all], where worker 0 is a domain of its own).  Tasks
    left on the other workers' deques run only if a worker reaches them
    before it sees the flag.  Re-raises the first recorded task
    exception, if any is still pending, a drained task's included. *)

val steal_attempts : t -> int
(** Sum of the per-worker [steal_attempts] counters.  Exact once the
    workers have quiesced; advisory while they run. *)

val successful_steals : t -> int
(** Sum of the per-worker [successful_steals] counters; see
    {!steal_attempts}. *)

val parked_workers : t -> int
(** Thieves registered in the pool's {!Parking}: parked, or about to
    re-check or leave ({!Parking.waiting}; advisory snapshot). *)

val counters : t -> Abp_trace.Counters.t array
(** Per-worker telemetry records (the sink's records when traced, a
    private set otherwise).  Aggregate with {!Abp_trace.Counters.sum}
    after {!shutdown}. *)
