(** Exhaustive interleaving verification of the lean future's cell
    protocol ({!Abp_hood.Future}): one executor publishes the task's
    outcome (CAS [Unforced -> Value], or, when that fails, fulfil the
    installed promise) while [k] forcers that missed the inline join
    race to install a promise (CAS [Unforced -> Waited p]) and await
    it, modelled shared-access by shared-access.  The await itself is
    the {!Fiber_model} protocol (LOAD, then resume at once or CAS-park,
    retry on CAS failure).  Every reachable state is visited by DFS
    with memoization.

    Verified properties:

    - {b exactly-once delivery}: every forcer gets the value exactly
      once — directly from the cell, from an already-fulfilled promise,
      or by the executor's schedule step — in {e every} interleaving;
    - {b no lost wakeup}: no state without an enabled step leaves a
      forcer parked;
    - {b one publication}: the executor publishes once, and fulfils a
      promise only if a forcer installed one;
    - {b both paths exercised}: some executions deliver the value
      directly (the executor's CAS won) and some through the installed
      promise ([direct_gets] and [promise_gets] both positive). *)

type report = {
  states_explored : int;
  complete_executions : int;  (** distinct states with no enabled step *)
  direct_gets : int;
      (** complete executions in which a forcer read the published
          value straight from the cell *)
  promise_gets : int;
      (** complete executions in which a forcer got the value through
          the installed promise *)
  violations : string list;  (** deduplicated messages; empty = verified *)
}

val explore : forcers:int -> report
(** Exhaustive DFS over all interleavings of [forcers] forcer threads
    and one executor.  Raises [Invalid_argument] for [forcers < 1]. *)

val pp_report : Format.formatter -> report -> unit
