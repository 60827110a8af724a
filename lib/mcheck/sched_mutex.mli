(** A drop-in [Mutex] for model checking production code: one
    {!Sched_atomic} cell holding whether the mutex is held.  [lock]
    blocks the thread ({!Sched_explorer} does not schedule it) until the
    mutex is free, and takes it in the same step. *)

type t

val create : unit -> t
val lock : t -> unit

val unlock : t -> unit
(** Raises [Failure] if the mutex is not held. *)
