(** The worker side of {!Pool}: one pool's shared state, a worker's
    record, the Figure 3 scheduling loop, and the hooks that {!Future},
    {!Par} and the serving layer ({!Abp_serve.Shard}) call from inside a
    task.  Internal to the runtime: the [Abp] umbrella does not
    re-export it, and applications use {!Pool}, {!Future} and {!Par}.
    The types shared with {!Pool} are documented there. *)

type yield_kind = No_yield | Yield_local | Yield_to_random | Yield_to_all

type gate_hook = {
  poll : int -> bool;
  wait : int -> float;
  on_steal_fail : int -> unit;
}

type source = {
  take : unit -> (unit -> unit) option;
  pending : unit -> bool;
  note : Abp_trace.Counters.t -> bool -> unit;
  event : Abp_trace.Event.kind option;
}

type deque = {
  push : (unit -> unit) -> int;
  pop_bottom : unit -> unit -> unit;
  pop_top : unit -> unit -> unit;
  size : unit -> int;
}
(** One worker's deque, closed over it: the {!Abp_deque.Spec.CORE} that
    {!Pool.create} selects, over tasks and the sentinels below ([==]). *)

val empty : unit -> unit
val lost : unit -> unit

type pool = {
  deques : deque array;
  shutdown_flag : bool Atomic.t;
  run_lock : Mutex.t;
  mutable domains : unit Domain.t array;
  size : int;
  yield_kind : yield_kind;
  park_after_ns : int;
  gate : gate_hook option;
  sources : source array;  (** the resume inbox, then [create]'s sources *)
  all_spawned : bool;
  counters : Abp_trace.Counters.t array;
  trace : Abp_trace.Sink.t option;
  parking : Parking.t;  (** idle thieves park here *)
  pending_exn : (exn * Printexc.raw_backtrace) option Atomic.t;
  resume_lock : Mutex.t;
  resume_q : (unit -> unit) Queue.t;
  resume_n : int Atomic.t;
  n_suspended : int Atomic.t;
  mutable fsched : Abp_fiber.Fiber.sched;
}
(** The state every worker of one pool shares; [Pool.t] is this type. *)

type t
(** A worker identity: the pool, a process index and that worker's
    own deque, counters and backoff state. *)

(** {2 Pool plumbing} *)

val make : pool -> int -> t
(** [make p i] is worker [i]'s record; make it on the domain that will
    use it (it caches that domain's fiber-context flag). *)

val with_context : t -> (unit -> 'a) -> 'a
(** Run [f] as the calling domain's worker (the identity {!current}
    returns), restoring the previous one afterwards. *)

val worker_loop : t -> unit
(** The Figure 3 loop until the pool's shutdown flag is set. *)

val help_until : t -> (unit -> bool) -> unit
(** The loop for the [run] caller: until [stop ()], never parking. *)

val drain_own : t -> unit
(** Run the worker's own deque empty with owner pops only (never a
    steal), so that its final empty pop performs Figure 5's reset; the
    [run] caller's first step, and the first step of [shutdown]. *)

val wake : pool -> unit
(** Wake every parked thief; one atomic read when none is parked. *)

val make_fiber_sched : pool -> Abp_fiber.Fiber.sched
(** The scheduler {!Pool.create} installs in [fsched]; see {!fiber_sched}. *)

(** {2 Hooks for code running on a worker} *)

val current : unit -> t
(** The calling domain's worker context.  @raise Failure if the calling
    domain is not a pool worker. *)

val self_id : unit -> int option
(** The calling domain's worker index within its own pool, or [None]
    when not a pool worker — the shard selector for per-worker sharded
    telemetry ({!Abp_stats.Log_histogram.Sharded}): code that may run
    either on a worker or on an external domain picks its
    single-writer slot with it. *)

val self_pool : unit -> pool option
(** The pool the calling domain works for, or [None] when not a pool
    worker.  With {!self_id} it names the executing worker across
    several pools: the serving layer ({!Abp_serve.Shard}) finds it among
    its shards' pools by physical equality to pick a group-wide slot. *)

val exec_counters : unit -> Abp_trace.Counters.t option
(** The executing worker's own counter record, or [None] off the pool:
    where code running inside a task (the serving layer's lane source
    and deadline accounting) attributes its telemetry.  Write it only
    from that worker's domain. *)

val push_task : t -> (unit -> unit) -> unit
(** Push a task onto the worker's own deque bottom (owner only) and wake
    a parked thief. *)

val try_get_task : t -> unit -> unit
(** One trip of Figure 3's acquisition: own-deque pop, then one steal
    attempt, then the sources in order.  A task, or {!empty}. *)

val pop_own : t -> (unit -> unit) -> bool
(** [pop_own w task] is the work-first join primitive (owner only):
    pop [w]'s own deque bottom and return [true] iff it is [task]
    (physical equality), which the caller must then run — a hit counts
    one [pops].  Any other task is pushed straight back and [false]
    returned, counting nothing, so [pushes = pops + stolen_tasks] still
    holds; [false] also when the deque is empty or the pop lost its
    last task to a thief (counted in [cas_failures_pop_bottom]).  No
    synchronization beyond the deque's own last-element case. *)

val in_fiber : t -> bool
(** [Fiber.in_context ()] for the calling domain's own worker, read
    from a flag the worker record caches, without a domain-local-storage
    lookup. *)

val run_task : t -> (unit -> unit) -> unit
(** Execute one task under the worker's pool's fiber handler, exactly
    as the worker loop would.  Helpers running tasks outside the loop
    ({!Future.force}'s out-of-context path) must use this rather
    than calling the closure raw: an un-handled task could otherwise
    perform [Await] into the {e enclosing} task's handler and park the
    helper itself. *)

val checkpoint : t -> unit
(** Gate safe point: blocks while the worker's preemption gate is
    closed (no-op on ungated pools).  {!Future.force} calls this once
    on every pending join, before the join fast path ({!pop_own}, the
    work-first inline run of an unstolen child), so a chain of inline
    joins keeps one safe point per node; out of context it also calls
    it each trip around its help loop, so a worker blocked on a future
    still honours suspensions. *)

val local_deque_size : t -> int
(** Observed size of the worker's own deque — the lazy-splitting signal
    used by {!Par.parallel_for}: an empty own deque means thieves
    looking here would leave empty-handed, so the loop splits; a
    non-empty one means stealable work already exists, so it runs a
    chunk sequentially instead. *)

val fiber_sched : pool -> Abp_fiber.Fiber.sched
(** The pool's fiber scheduler: ready continuations are pushed onto the
    current worker's deque (when scheduled from a worker of any pool)
    or enqueued on the pool's resume inbox and parked thieves woken
    (when scheduled from an external domain, e.g. a backend fulfilling
    a promise).  Layers installing their own handler around task bodies
    ({!Abp_serve.Shard.Serve}) wrap this record's hooks so the pool's gauge
    and telemetry keep counting. *)
