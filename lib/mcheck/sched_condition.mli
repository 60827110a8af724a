(** A drop-in [Condition] for model checking production code, over one
    {!Sched_atomic} cell, with POSIX semantics minus spurious wakeups.

    [wait c m] enters the wait set, releases [m], blocks until a
    [signal] or [broadcast] wakes it, and takes [m] again: four steps.
    [signal] wakes one of the threads in the wait set at that moment
    that no earlier wake has woken, and which one is left open: each
    of them may take the wake.  [broadcast] wakes them all.  A wake
    with nobody left to wake is lost. *)

type t

val create : unit -> t
val wait : t -> Sched_mutex.t -> unit
val signal : t -> unit
val broadcast : t -> unit
