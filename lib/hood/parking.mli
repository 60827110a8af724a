(** One park/wake protocol: a thread blocks until a condition it
    cannot wait on directly becomes true, and the threads that make it
    true wake it.  The pool's idle thieves ({!Worker}), the serving
    layer's completion waits ({!Abp_serve.Shard}) and the
    multiprogramming gates ({!Abp_mp.Gate}) all park here.

    {b No lost wakeup.}  A parker registers in {!waiting}, then takes
    the lock and re-checks [ready] before it waits; a waker first makes
    [ready] true, then reads {!waiting} and, when it is nonzero, takes
    the same lock to signal.  Either the waker's read sees the
    registration, and its signal, serialised behind the parker's
    critical section, lands after the wait has begun; or the waker made
    [ready] true before the registration, and the re-check sees it.
    Waking is therefore cheap when nobody waits: one atomic read.

    The protocol is checked exhaustively by [Parking_checks] (lib/mcheck,
    [mcheckrun --scenario parking]) on a copy of [parking.ml] generated
    with a scheduling [Atomic], [Mutex] and [Condition]. *)

type t

val create : unit -> t

val park : ?on_wait:(unit -> unit) -> t -> ready:(unit -> bool) -> unit
(** [park t ~ready] registers, re-checks [ready ()] under the lock and,
    if it is false, waits for a wake, at most once: it returns after
    one wake, or a spurious wakeup, without checking [ready] again, so
    callers loop.  [on_wait] runs under the lock just before the wait,
    once per actual wait (the pool counts and stamps its parks there).
    [ready] runs under the lock: it must not block or park. *)

val wake_one : t -> unit
(** Wake one parked thread, if any.  Call it after making some parker's
    [ready] true.  One atomic read when nobody is registered. *)

val wake_all : t -> unit
(** Wake every parked thread, if any; one atomic read when nobody is
    registered. *)

val waiting : t -> int
(** Threads registered in {!park}: waiting, or about to re-check or
    leave (advisory snapshot). *)
