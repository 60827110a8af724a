(** Exhaustive checks of the production park/wake protocol
    ([lib/hood/parking.ml]), run by {!Sched_explorer} over its generated
    [Parking_checked] copy, where [Atomic], [Mutex] and [Condition] are
    {!Sched_atomic}, {!Sched_mutex} and {!Sched_condition}.

    [k] waiters each loop: take what the waker published, or [park]
    until it is ready.  One waker publishes and then wakes.  Every
    complete execution must end with every waiter done: a waiter still
    blocked (on the condition or the mutex) while its [ready] holds is
    a lost wakeup, the bug the protocol exists to prevent.  Some
    execution must also have a waiter really wait, or the check would
    not reach the wake path. *)

type wake =
  | One
      (** the pool's push: the waker publishes [k] items one at a time,
          each followed by [wake_one]; a waiter is ready while an item
          is left and takes one with a CAS *)
  | All
      (** a gate's open or a shard's completion: the waker sets one flag
          and calls [wake_all] once; a waiter is ready once it is set *)

type report = {
  run : Sched_explorer.report;
  waited : int;  (** complete executions in which some waiter waited *)
}

val explore : wake -> int -> report
(** [explore wake k] with [k] waiters.  Raises [Invalid_argument] for
    [k < 1]. *)

val wake_name : wake -> string
val pp_report : Format.formatter -> report -> unit
