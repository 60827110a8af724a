(** Exhaustive interleaving exploration of the fence-free deque with
    multiplicity ({!Abp_deque.Wsm_deque}, modelled by
    {!Abp_deque.Wsm_step}).

    {!Deque_checks} verifies the ABP deque against {e exactly-once}
    conservation, which the wsm protocol deliberately does not promise.
    This checker verifies the weaker contract the backend actually
    makes — and that the relaxation goes no further:

    - {b at-least-once conservation}: every pushed value is extracted
      by at least one pop or remains reachable in the final state
      (private ring or published window); nothing is lost;
    - {b nothing invented}: every extracted or remaining value was
      pushed;
    - {b multiplicity is visible, bounded and counted}: duplicate
      extractions are tallied per execution ([max_duplicates] is the
      worst execution's count — racy scenarios should make it
      positive, proving the harness can see the relaxation);
    - {b NIL legality}: a NIL is legal only if at some instant during
      the invocation the published window was empty, or another
      process completed an extraction meanwhile; and the protocol's
      defensive unpublished-slot NIL is unreachable under sequentially
      consistent interleavings;
    - {b serial exactness}: executions in which no two invocations
      overlap must produce no duplicates, agree with the ideal LIFO
      oracle on every [popBottom], and return the oracle's exact top
      from every successful [popTop];
    - {b wait-freedom}: every method completes within
      {!Abp_deque.Wsm_step.steps_bound} (= 4) shared accesses. *)

type program = {
  owner : Abp_deque.Wsm_step.op list;
      (** executed in order by the single owner thread *)
  thieves : Abp_deque.Wsm_step.op list list;
      (** one list per thief thread; only [Pop_top] is allowed *)
}

val program_total_ops : program -> int

type report = {
  states_explored : int;
  complete_executions : int;
  serial_executions : int;
      (** complete executions with no overlapping invocations, each
          checked for exactness against the LIFO oracle *)
  max_duplicates : int;
      (** largest duplicate-extraction count over all executions; [> 0]
          iff some interleaving exhibited multiplicity *)
  violations : string list;  (** deduplicated messages; empty = verified *)
}

val explore : program -> report
(** Exhaustive DFS with state memoization.  Raises [Invalid_argument]
    if a thief list contains an owner operation, or the owner pushes
    the same value twice (the conservation verdict is per-value). *)

val pp_report : Format.formatter -> report -> unit

val wsm_thief : program
(** The owner/thief race around the unfenced cursor reads: two thieves
    race the same published window while the owner drains and
    republishes.  Interleavings where both thieves read the same [con]
    exhibit multiplicity ([max_duplicates > 0]); the explorer verifies
    the relaxation goes no further. *)

val wsm_reuse : program
(** Board-slot reuse: enough publishes to wrap
    {!Abp_deque.Wsm_step.board_length} while a thief's invocation can
    straddle a slot overwrite — the stale read made safe by the
    publish-requires-drained rule. *)
