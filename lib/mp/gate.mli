(** Per-worker cooperative preemption gates.

    The user-level analogue of the kernel granting or revoking a
    processor: each pool worker owns a gate; while the gate is open the
    worker runs normally, and when the {!Controller} closes it the
    worker blocks at its next {e safe point} — after finishing a task,
    between steal attempts, before parking, or at every pending
    {!Abp_hood.Future.force} join (see {!Abp_hood.Pool.gate_hook}).
    Safe points are placed where the worker holds no
    acquired-but-unpublished tasks, so a suspended worker never strands
    work: everything it owns is in its deque, stealable by the workers
    that remain granted.

    The open fast path is one atomic load.  A worker that suspends
    parks on its cell's {!Abp_hood.Parking}, which an open wakes. *)

type t

val create : num_workers:int -> t
(** All gates start open. *)

val num_workers : t -> int

val hook : t -> Abp_hood.Pool.gate_hook
(** The hook to pass to {!Abp_hood.Pool.create} (or as one entry of
    {!Abp_serve.Shard.create}'s [gates]).  Its [on_steal_fail] forwards
    to the handler installed with {!set_steal_fail} ([ignore]
    initially). *)

val set : t -> bool array -> unit
(** [set t granted] opens gate [i] iff [granted.(i)], waking any worker
    blocked on a newly opened gate.  Length must equal [num_workers]. *)

val open_all : t -> unit
(** Open every gate.  {b Must} be called before the pool shuts down
    (done by {!Controller.stop}): a worker blocked at a closed gate
    cannot observe the shutdown flag. *)

val is_open : t -> int -> bool

val wait : t -> int -> float
(** [wait t i] blocks until gate [i] opens and returns the seconds spent
    blocked.  This is the hook's [wait]; exposed for tests. *)

val set_steal_fail : t -> (int -> unit) -> unit
(** Install the failed-steal handler the hook forwards to — the
    {!Controller} points this at its pending-yield flags.  The handler
    runs on the thief's domain and must not block. *)

val suspends : t -> int -> int
(** Times worker [i] actually blocked at a closed gate (the pool's
    [gate_suspends] counter tracks the same events per worker). *)

val suspended_seconds : t -> int -> float
(** Total seconds worker [i] has spent blocked. *)

val total_suspended_seconds : t -> float
