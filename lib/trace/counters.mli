(** Per-worker scheduler event counters.

    One record per worker (process in the simulator, domain on the Hood
    runtime), mutated only by its owning worker on the hot path — no
    atomics, no cross-worker contention — and aggregated with {!sum}
    after the run, once the workers have quiesced (joined domains, or the
    sequential simulator loop).

    The counter set covers the events the paper's empirical studies
    (Section 5) count: steal attempts and successes, the CAS failures
    that distinguish contention from emptiness in [popTop]/[popBottom],
    owner pushes/pops, yields between failed steal attempts, lock spins
    (Locked-deque models only), and the deque's high-water mark — plus
    the batched-transfer telemetry added with steal-half scheduling:
    tasks moved per steal, batch sizes, and injector batch drains. *)

type t = {
  mutable pushes : int;  (** [pushBottom] invocations by the owner *)
  mutable pops : int;  (** successful [popBottom]s *)
  mutable steal_attempts : int;  (** completed [popTop]/[pop_top_n] invocations *)
  mutable successful_steals : int;
      (** steal {e operations} that returned at least one task.  With
          batching, one successful steal may move several tasks; the
          per-task total is {!field:stolen_tasks}, keeping
          [successful_steals <= steal_attempts] and the
          {!consistent}/{!complete} breakdowns intact. *)
  mutable stolen_tasks : int;
      (** total tasks acquired via stealing; equals
          [successful_steals] when batching is off *)
  mutable batch_steals : int;
      (** successful steals that moved {e two or more} tasks *)
  mutable steal_empties : int;
      (** steals that found the deque empty.  A batched [pop_top_n]
          returning [[]] lands here: the batch API does not distinguish
          a lost CAS from emptiness, so batch-mode contention is folded
          into this bucket. *)
  mutable cas_failures_pop_top : int;
      (** [popTop]s that lost the [age]/[top] CAS to a racing process *)
  mutable cas_failures_pop_bottom : int;
      (** [popBottom]s that lost the last element to a thief *)
  mutable yields : int;  (** yields between failed steal attempts *)
  mutable lock_spins : int;  (** actions burnt spinning on a deque lock *)
  mutable deque_high_water : int;  (** maximum observed deque size *)
  mutable max_steal_batch : int;
      (** largest number of tasks moved by a single steal or injector
          drain *)
  mutable parks : int;
      (** times an idle thief exhausted its backoff and blocked on the
          pool's condition variable (Hood runtime only; 0 in the
          simulator) *)
  mutable task_exceptions : int;
      (** tasks whose execution raised in a worker loop; the first such
          exception is re-raised at the [run]/[shutdown] boundary *)
  mutable inject_polls : int;
      (** polls of the pool's external submission source (the
          {!Abp_serve.Injector} inbox), made only after the own-deque pop
          and the steal attempt both came up empty — the Figure 3 loop
          order extended with a third, lowest-priority source *)
  mutable inject_tasks : int;
      (** externally submitted tasks actually acquired from the inbox *)
  mutable inject_batches : int;
      (** injector polls that drained {e two or more} tasks at once *)
  mutable cross_polls : int;
      (** polls of the pool's remote (cross-shard) work source, made only
          after the own deque, an intra-pool steal attempt, and the own
          injector all came up empty — the lowest-priority rung of the
          sharded Figure 3 order ({!Abp_serve.Shard}) *)
  mutable cross_shard_steals : int;
      (** cross-shard polls that acquired at least one task from a remote
          shard (deque steal or remote-inbox drain) *)
  mutable cross_stolen_tasks : int;
      (** total tasks acquired across shard boundaries; equals
          [cross_shard_steals] when every cross poll moves one task *)
  mutable gate_suspends : int;
      (** times the worker blocked at a closed preemption gate — the
          multiprogramming harness's ({!Abp_mp}) cooperative analogue of
          being descheduled by the kernel (Hood runtime only; 0 without a
          gate) *)
  mutable gate_wait_ns : int;
      (** total wall-clock time, in nanoseconds, the worker spent blocked
          at closed gates; the utilization sampler integrates this into
          the per-worker suspended time and the processor average
          [Pbar] *)
  mutable directed_yields : int;
      (** stage-1 yields escalated to the gate controller under
          [Yield_to_random]/[Yield_to_all] (the paper's yieldToRandom /
          yieldToAll kernel directives) *)
  mutable suspensions : int;
      (** fiber suspensions: tasks that performed [Await] on a pending
          {!Abp_fiber.Fiber.Promise.t} and parked their continuation,
          freeing this worker back into the Figure 3 loop (Hood runtime
          only; 0 in the simulator) *)
  mutable resumes : int;
      (** parked continuations this worker resumed.  Suspend and resume
          may land on different workers (the continuation migrates), so
          the identity [resumes = suspensions] holds only on the
          aggregate, and only once every promise has been resolved and
          its waiters run *)
  mutable suspended_peak : int;
      (** high-water mark of simultaneously parked continuations on the
          owning pool, as observed by this worker at its own suspend
          instants; aggregates by [max], so the pool-wide peak is exact
          (the peak-reaching suspension records it) *)
  mutable lane_polls : int;
      (** deadline-lane arbiter polls by the serving layer's injector
          drain ({!Abp_serve.Serve} with lanes): times an idle worker's
          external-source poll consulted the high-priority deadline
          injector (whether or not it held work) *)
  mutable lane_tasks : int;
      (** tasks acquired from the deadline lane; [<= inject_tasks] on
          the aggregate, since every lane task is also an injector
          task *)
  mutable deadline_misses : int;
      (** deadline-lane (or plain [~deadline]) tickets whose settlement
          — completion or exception — landed {e after} the ticket's
          absolute deadline.  Counted by the worker that settled the
          ticket; cancellations are not misses (they never ran) *)
  mutable scale_ups : int;
      (** shard activations performed by {!Abp_serve.Supervisor.scale_up}
          (reactivations of a quiesced spare; single-writer: the
          supervisor's own record) *)
  mutable scale_downs : int;
      (** shard quiescences performed by
          {!Abp_serve.Supervisor.scale_down} (admission stopped,
          injectors drained, parked continuations migrated) *)
  mutable migrated_continuations : int;
      (** parked fiber continuations re-homed to a surviving shard's
          resume inbox during a quiesce, plus queued injector closures
          forwarded the same way — every one resumes exactly once on its
          new home, so the aggregate [resumes = suspensions] identity is
          unaffected *)
  steal_batch_hist : int array;
      (** tasks-per-transfer histogram over {!batch_buckets} fixed
          buckets (see {!batch_bucket_labels}); fed by {!note_batch} on
          every successful steal and injector drain.  Not part of
          {!fields} (exporters get scalars); read via {!batch_hist}. *)
  mutable steal_victims : int array;
      (** victim-indexed successful-steal counts (intra-pool steals
          only), grown on demand by {!note_victim}: when this record
          belongs to worker [i], slot [v] is the number of successful
          steals [i] made from victim [v] — row [i] of the pool's
          pairwise steal (locality) matrix.  Not part of {!fields};
          read via {!victim_counts}, rendered as a matrix by
          {!Abp_trace.Report} and exported per worker by
          {!Abp_trace.Chrome}. *)
}

val batch_buckets : int
(** Number of buckets in {!field:steal_batch_hist} (6). *)

val batch_bucket_labels : string array
(** Human-readable bucket bounds: [1], [2], [3-4], [5-8], [9-16], [>16]. *)

val batch_bucket : int -> int
(** [batch_bucket n] is the {!field:steal_batch_hist} index for a
    transfer of [n] tasks. *)

val create : unit -> t
(** All counters zero.  The record is cache-line padded
    ({!Abp_deque.Padding}): records created back to back (one per
    worker) never false-share, keeping single-writer hot-path bumps
    genuinely contention-free. *)

val reset : t -> unit

val copy : t -> t

val note_depth : t -> int -> unit
(** [note_depth c n] raises the high-water mark to [n] if larger. *)

val note_batch : t -> int -> unit
(** [note_batch c n] records that one steal (or injector drain)
    transferred [n] tasks: bumps {!field:max_steal_batch} and the
    matching {!field:steal_batch_hist} bucket. *)

val note_victim : t -> int -> unit
(** [note_victim c v] counts one successful steal from victim [v] in
    {!field:steal_victims}, growing the vector on demand (amortized
    O(1)).  Negative [v] is ignored. *)

val victim_counts : t -> int array
(** Copy of {!field:steal_victims}; index [v] may be absent (shorter
    array) when this worker never stole from victims that high. *)

val add : into:t -> t -> unit
(** Accumulate counter-wise; high-water marks ([deque_high_water],
    {!field:max_steal_batch}, {!field:suspended_peak}) combine by
    [max], the batch histogram and victim vector element-wise (the
    victim vector grows to the longer operand). *)

val sum : t array -> t
(** Fresh aggregate of all records (empty array => all zeros). *)

val consistent : t -> bool
(** [successful_steals + steal_empties + cas_failures_pop_top
    <= steal_attempts], [stolen_tasks >= successful_steals],
    [batch_steals <= successful_steals], and every field non-negative. *)

val complete : t -> bool
(** Like {!consistent} but with equality: every completed steal attempt
    is classified as exactly one of success / empty / CAS failure.  Holds
    for the instrumented engine and runtime. *)

val fields : t -> (string * int) list
(** Stable [(name, value)] view for exporters (scalar fields only; the
    batch histogram is exposed via {!batch_hist}). *)

val batch_hist : t -> int array
(** Copy of the tasks-per-transfer histogram, indexable by
    {!batch_bucket} / labelled by {!batch_bucket_labels}. *)

val pp : Format.formatter -> t -> unit
