(** The kernel adversary, run against the real pool.

    A controller domain divides wall-clock time into {e quanta}
    (default 1 ms), ticking on absolute deadlines through
    {!Abp_trace.Clock.sleep_until}; a tick that overruns its quantum
    re-anchors the schedule instead of catching up.  Each quantum it rebuilds the adversary's view of
    the scheduler, asks the {!Abp_kernel.Adversary} which workers the
    kernel deigns to run, repairs that set against outstanding yield
    obligations ({!Abp_kernel.Yield.repair}) and applies it to the
    {!Gate}s: granted workers run, revoked workers block at their next
    safe point.  This adapts the simulator's round-based adversary to
    hardware — one quantum plays the role of one kernel round.

    {2 Approximations (documented divergences from the paper's model)}

    - Suspension is {e cooperative}: a revoked worker finishes its
      current task before blocking, whereas the paper's kernel preempts
      instantly.  Quanta therefore vary slightly in effective length.
    - A suspended worker's deque remains stealable, so work it holds is
      not locked away (the paper's model ties a node to its process).
      This is why a yield-less pool under [starve-workers] still
      completes on hardware — only far more slowly and with many more
      failed steals — while the simulator can stall it outright.
    - The adaptive view is a proxy: [deque_size] is the racy observed
      size, [has_assigned] is "deque non-empty or made progress since
      the last quantum", and [in_critical_section] is always [false]
      (the pool's deques are non-blocking).

    {2 Yield mapping}

    Under [Yield_to_random]/[Yield_to_all] the pool reports each failed
    steal through the gate's [on_steal_fail]; the worker just sets a
    flag and keeps running (the yield {e call} is asynchronous).  At the
    next quantum the controller converts pending flags into kernel
    obligations ({!Abp_kernel.Yield.on_yield}), which [repair] then
    enforces: a yielding thief is descheduled in favour of the workers
    it yielded to, exactly the substitution of Section 4.4.  A flag
    raised by a worker that was not granted the last quantum (a
    revoked thief still on its way to a safe point) is dropped: a
    descheduled process cannot yield, and keeping such reports let
    two revoked thieves hold obligations on each other forever. *)

type t

val create :
  ?quantum:float ->
  ?yield:Abp_kernel.Yield.kind ->
  ?ncores:int ->
  ?rng:Abp_stats.Rng.t ->
  gate:Gate.t ->
  pool:Abp_hood.Pool.t ->
  Abp_kernel.Adversary.t ->
  t
(** [quantum] is the seconds per kernel round (default 1e-3).  [yield]
    selects the obligation semantics (default [No_yield]); it should
    match the pool's {!Abp_hood.Pool.yield_kind} ([Yield_local] maps to
    [No_yield]: backoff without directed yields).  [ncores] (default
    {!Domain.recommended_domain_count}) caps the hardware-processor
    average {!pbar}.  Installs the gate's steal-fail handler. *)

val start : t -> unit
(** Spawn the controller domain.  Idempotent. *)

val stop : t -> unit
(** Stop the controller: opens {e all} gates, uninstalls the steal-fail
    handler and joins the domain.  {b Must} be called before
    [Pool.shutdown]/[Shard.shutdown] — a worker blocked at a closed gate
    cannot see the shutdown flag.  Idempotent. *)

val quanta : t -> int
(** Kernel rounds executed so far. *)

val pbar_procs : t -> float
(** Time-weighted average number of {e granted workers} — the paper's
    processor average over the grant schedule, each grant set weighted
    by the wall time it was in force (on a loaded machine the
    controller's wakeups are delayed unevenly, so per-quantum counting
    would misstate the schedule).  This is the figure that drops under
    [markov]/[starve] adversaries regardless of how many hardware cores
    back the workers. *)

val pbar : t -> float
(** Hardware processor average: time-weighted [min(granted, ncores)].
    On an oversubscribed machine granting 3 of 4 workers changes
    nothing physical when only 1 core exists; only windows that revoke
    {e every} worker (the [duty] adversary) lower this figure.  Use
    this [Pbar] in the [T1/Pbar + c*Tinf*P/Pbar] fit. *)

val suspended_seconds : t -> float
(** Total seconds workers have spent blocked at closed gates. *)

val adversary_name : t -> string
val yield_kind : t -> Abp_kernel.Yield.kind
