(** Exhaustive checks of the production promise ([lib/fiber/fiber.ml])
    and future cell ([lib/hood/future_impl.ml]), run by
    {!Sched_explorer} over their generated [Fiber_checked] and
    [Future_checked] copies.

    In both, every waiter runs under the real [Fiber.run] handler, whose
    [schedule] turns each parked waiter's resumption into a new thread.
    Every complete execution must give each waiter the value exactly
    once and leave none parked (as many resumes as suspensions), and
    each named path must be taken by some execution.  A thread that
    raises ([Promise.fulfil] on a resolved promise, the [assert false]
    of a [publish] that finds no promise) is a violation. *)

type report = {
  run : Sched_explorer.report;
  paths : (string * int) list;
      (** complete executions that took each path; a path no execution
          took is also listed in [run.violations] *)
}

val fiber_await : int -> report
(** [fiber_await k]: [k] awaiters [Promise.await] one promise that one
    fulfiller [Promise.fulfil]s.  Paths: [immediate] (an awaiter found
    the promise resolved, before or inside the handler) and [scheduled]
    (an awaiter parked and was resumed).  Raises [Invalid_argument] for
    [k < 1]. *)

val future_cell : int -> report
(** [future_cell k]: the task of one [spawn_on] future publishes its
    value while [k] forcers [force] it, each missing the inline join
    (the child was stolen).  The value must end published once: in the
    cell ([direct] path) or through the promise a forcer installed
    ([via promise]).  Raises [Invalid_argument] for [k < 1]. *)

val pp_report : Format.formatter -> report -> unit
