(** Per-worker scheduler event counters.

    One {!t} per worker (process in the simulator, domain on the Hood
    runtime), mutated only by its owning worker on the hot path — no
    atomics, no cross-worker contention — and aggregated with {!sum}
    after the run, once the workers have quiesced (joined domains, or the
    sequential simulator loop).

    The counter set covers the events the paper's empirical studies
    (Section 5) count: steal attempts and successes, the CAS failures
    that distinguish contention from emptiness in [popTop]/[popBottom],
    owner pushes/pops, yields between failed steal attempts, lock spins
    (Locked-deque models only), and the deque's high-water mark.

    {2 Declared counters}

    Every counter is an {!id} declared once in [counters.ml], as
    [let pushes = sum "pushes"] or
    [let deque_high_water = peak "deque_high_water"].  The declaration
    order is the {!fields} order, and the kind decides aggregation:
    - a {e sum} counter counts events; {!add}/{!sum} add it up;
    - a {e peak} counter is a high-water mark raised with {!note_max};
      {!add}/{!sum} take the max.  The peaks are {!deque_high_water}
      and {!suspended_peak}.

    Adding a counter therefore takes that one declaration plus its
    [val] and doc below; {!create}, {!reset}, {!copy}, {!add}, {!sum},
    {!fields}, {!pp} and every exporter pick it up from the table.

    Writers bump through {!incr}/{!add_n}/{!note_max} and readers use
    {!get}: each is an inlined, bounds-checked write or read of one
    slot of the worker's int array, with no allocation or name lookup. *)

type t
(** One worker's counters: the declared scalars in one
    cache-line-padded int array, plus the growable victim vector. *)

type id
(** A declared counter: its slot in every {!t}. *)

val pushes : id  (** [pushBottom] invocations by the owner *)

val pops : id  (** successful [popBottom]s *)

val steal_attempts : id  (** completed [popTop] invocations *)

val successful_steals : id  (** [popTop]s that returned a task *)

val stolen_tasks : id
(** total tasks acquired via stealing; every steal moves one task,
    so this equals [successful_steals].  The conservation law
    [pushes = pops + stolen_tasks] is stated over it. *)

val steal_empties : id  (** steals that found the deque empty *)

val cas_failures_pop_top : id  (** [popTop]s that lost the [age]/[top] CAS to a racing process *)

val cas_failures_pop_bottom : id  (** [popBottom]s that lost the last element to a thief *)

val yields : id  (** yields between failed steal attempts *)

val lock_spins : id  (** actions burnt spinning on a deque lock *)

val deque_high_water : id  (** maximum observed deque size *)

val parks : id
(** times an idle thief exhausted its backoff and blocked on the
    pool's condition variable (Hood runtime only; 0 in the
    simulator) *)

val task_exceptions : id
(** tasks whose execution raised in a worker loop; the first such
    exception is re-raised at the [run]/[shutdown] boundary *)

val inject_polls : id
(** polls of the pool's external submission source (the
    {!Abp_serve.Injector} inbox), made only after the own-deque pop
    and the steal attempt both came up empty — the Figure 3 loop
    order extended with a third, lowest-priority source *)

val inject_tasks : id  (** externally submitted tasks actually acquired from the inbox *)

val cross_polls : id
(** polls of the pool's remote (cross-shard) work source, made only
    after the own deque, an intra-pool steal attempt, and the own
    injector all came up empty — the lowest-priority rung of the
    sharded Figure 3 order ({!Abp_serve.Shard}) *)

val cross_shard_steals : id
(** cross-shard polls that acquired a task from a remote shard (deque
    steal or remote-inbox take) *)

val cross_stolen_tasks : id
(** total tasks acquired across shard boundaries; every cross poll
    moves one task, so this equals [cross_shard_steals] *)

val gate_suspends : id
(** times the worker blocked at a closed preemption gate — the
    multiprogramming harness's ({!Abp_mp}) cooperative analogue of
    being descheduled by the kernel (Hood runtime only; 0 without a
    gate) *)

val gate_wait_ns : id
(** total wall-clock time, in nanoseconds, the worker spent blocked
    at closed gates; the utilization sampler integrates this into
    the per-worker suspended time and the processor average
    [Pbar] *)

val directed_yields : id
(** stage-1 yields escalated to the gate controller under
    [Yield_to_random]/[Yield_to_all] (the paper's yieldToRandom /
    yieldToAll kernel directives) *)

val suspensions : id
(** fiber suspensions: tasks that performed [Await] on a pending
    {!Abp_fiber.Fiber.Promise.t} and parked their continuation,
    freeing this worker back into the Figure 3 loop (Hood runtime
    only; 0 in the simulator) *)

val resumes : id
(** parked continuations this worker resumed.  Suspend and resume
    may land on different workers (the continuation migrates), so
    the identity [resumes = suspensions] holds only on the
    aggregate, and only once every promise has been resolved and
    its waiters run *)

val suspended_peak : id
(** high-water mark of simultaneously parked continuations on the
    owning pool, as observed by this worker at its own suspend
    instants; aggregates by [max], so the pool-wide peak is exact
    (the peak-reaching suspension records it) *)

val lane_polls : id
(** deadline-lane arbiter polls by the serving layer's injector
    drain ({!Abp_serve.Serve} with lanes): times an idle worker's
    external-source poll consulted the high-priority deadline
    injector (whether or not it held work) *)

val lane_tasks : id
(** tasks acquired from the deadline lane; [<= inject_tasks] on
    the aggregate, since every lane task is also an injector
    task *)

val deadline_misses : id
(** deadline-lane (or plain [~deadline]) tickets whose settlement
    — completion or exception — landed {e after} the ticket's
    absolute deadline.  Counted by the worker that settled the
    ticket; cancellations are not misses (they never ran) *)

val create : unit -> t
(** All counters zero.  The slot array keeps a spare cache line before
    and after its live slots, and the record holding it is padded with
    {!Abp_deque.Padding}: records created back to back (one per worker)
    never false-share, keeping single-writer hot-path bumps genuinely
    contention-free. *)

val incr : t -> id -> unit
(** [incr c id] counts one event. *)

val add_n : t -> id -> int -> unit
(** [add_n c id n] counts [n] events. *)

val note_max : t -> id -> int -> unit
(** [note_max c id n] raises a peak counter to [n] if larger. *)

val get : t -> id -> int

val reset : t -> unit
(** Zero every counter and the victim vector. *)

val copy : t -> t

val note_victim : t -> int -> unit
(** [note_victim c v] counts one successful steal from victim [v],
    growing the victim vector on demand (amortized O(1)).  Negative
    [v] is ignored. *)

val victim_counts : t -> int array
(** Copy of the victim-indexed successful-steal counts (intra-pool
    steals only): when this record belongs to worker [i], slot [v] is
    the number of successful steals [i] made from victim [v] — row [i]
    of the pool's pairwise steal (locality) matrix.  Index [v] may be
    absent (shorter array) when this worker never stole from victims
    that high.  Not part of {!fields}; rendered as a matrix by
    {!Abp_trace.Report} and exported per worker by
    {!Abp_trace.Chrome}. *)

val add : into:t -> t -> unit
(** Accumulate counter-wise by kind: sums add, peaks combine by [max];
    the victim vector adds element-wise (growing to the longer
    operand). *)

val sum : t array -> t
(** Fresh aggregate of all records (empty array => all zeros). *)

val consistent : t -> bool
(** [successful_steals + steal_empties + cas_failures_pop_top
    <= steal_attempts], [stolen_tasks = successful_steals], and every
    counter non-negative. *)

val complete : t -> bool
(** Like {!consistent} but with equality: every completed steal attempt
    is classified as exactly one of success / empty / CAS failure.  Holds
    for the instrumented engine and runtime. *)

val fields : t -> (string * int) list
(** Stable [(name, value)] view for exporters: every declared counter,
    in declaration order. *)

val pp : Format.formatter -> t -> unit
(** The non-zero counters as [name value], space-separated, in
    declaration order. *)
