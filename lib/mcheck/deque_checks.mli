(** Exhaustive checks of the production deques, run by
    {!Sched_explorer} over their generated checked copies: the ABP deque
    ([lib/deque/atomic_deque.ml], the paper's Figure 5) as
    [Atomic_deque_checked], and the multiplicity deque
    ([lib/deque/wsm_deque.ml]) as [Wsm_deque_checked].

    The paper asserts (Section 3.3) that Figure 5 meets the relaxed
    semantics and defers the proof to a technical report (TR-99-11);
    these checks are the reproduction's substitute.  In the copies,
    [Atomic] and every array slot are {!Sched_atomic} cells, so each
    load, store and [cas] is a step, and ABP's age tag wraps at a chosen
    width ({!Age_checked}).  A program is one owner thread issuing
    [pushBottom]/[popBottom] and thief threads issuing [popTop]s.
    {!explore} runs every program twice, on the [_detailed] pops that
    the Pool runs and on the option pops, and every execution must meet:

    - {b conservation}: every pushed value is returned by exactly one
      pop or remains in the final deque;
    - {b NIL legality} (the relaxed semantics): a pop that returns NIL
      saw, at some instant since its first access, an empty deque or
      the removal of the top item by another thread (a [popTop], or a
      [popBottom] that took the last item by its [cas]);
    - {b the telemetry classification}: an [Empty] NIL saw an empty
      instant, and a [Contended] one a top removal by another thread;
    - {b the step bounds}: [pushBottom] makes at most 3 accesses,
      [popTop] 4 and [popBottom] 7 (the owner's wait-freedom).

    With a tag too narrow for the owner resets a thief's steal can span
    ([tag_width = 0], or 1 with two resets in flight) the checks find
    the ABA violation that the tag exists to prevent.

    {!explore_wsm} runs a program on the multiplicity deque's detailed
    pops, whose contract is weaker by design, and checks that the
    relaxation goes no further:

    - {b at-least-once conservation}: every pushed value is returned by
      some pop or remains in the private ring or the published window
      [\[con, pub)]; and nothing else is returned or remains;
    - {b multiplicity counted}: the worst execution's duplicate
      returns are reported;
    - {b NIL legality}: a NIL saw, since its first access, an empty
      window or a change of [con] by another thread; and no pop reads
      an unpublished board slot (the defensive NIL);
    - {b serial exactness}: while no two invocations have overlapped,
      every return agrees with the LIFO {!Abp_deque.Spec.Reference},
      except that a [popTop] may return NIL while the work is private;
    - {b the step bounds}: [pushBottom] makes at most 7 accesses,
      [popBottom] 8 and [popTop] 4 (the private ring's slots count). *)

type op = Push_bottom of int | Pop_bottom | Pop_top

type program = {
  owner : op list;  (** executed in order by the owner thread *)
  thieves : op list list;  (** one list per thief thread; only [Pop_top] *)
}

type report = {
  detailed : Sched_explorer.report;  (** with [pop_bottom_detailed] and [pop_top_detailed] *)
  option : Sched_explorer.report;  (** with [pop_bottom] and [pop_top] *)
}

val explore : ?tag_width:int -> program -> report
(** [tag_width] defaults to {!Abp_deque.Bounded_tag.max_width}, the
    production tag.  Raises [Invalid_argument] if a thief list holds an
    owner operation, a value is pushed twice (the verdicts are
    per-value) or the width is out of range. *)

val violations : report -> string list
(** Both runs' violations, each prefixed with its pops; empty =
    verified. *)

val program_total_ops : program -> int
val pp_report : Format.formatter -> report -> unit

type wsm_report = {
  run : Sched_explorer.report;
  serial_executions : int;  (** complete executions with no overlapping invocations *)
  max_duplicates : int;  (** the most duplicate returns in one execution *)
}

val explore_wsm : program -> wsm_report
(** Raises [Invalid_argument] as {!explore} does. *)

val pp_wsm_report : Format.formatter -> wsm_report -> unit

val aba_scenario : program
(** The Section 3.3 ABA scenario: the owner drains the deque (resetting
    [top]) and refills it while a thief sits between its read of [age]
    and its [cas].  With the tag the thief's [cas] fails; without it
    ([tag_width = 0]) the [cas] succeeds on the recycled index and a
    node is consumed twice and another lost. *)

val wraparound_scenario : program
(** Two owner resets in one thief window: the bounded-tags condition
    ({!Abp_deque.Bounded_tag.safe_window}) — a 1-bit tag aliases and
    fails, 2 bits are safe. *)

val two_thieves : program
(** Three pushes racing two thieves: thief-vs-thief [cas] contention. *)

val owner_vs_thief_interleave : program
(** Pushes and owner pops racing a thief that steals twice, around the
    one-element state where the [popBottom]/[popTop] [cas] race lives. *)

val wsm_thief : program
(** Two thieves race the multiplicity deque's published window while the
    owner drains and republishes: where both read the same [con],
    both return the same value ([max_duplicates > 0]). *)

val wsm_reuse : program
(** Nine push/pop pairs, nine publishes, wrap the 8-slot board
    ({!Abp_deque.Wsm_deque.board_length}) while a thief's invocation can
    straddle a slot's overwrite: a stale slot read loses nothing.  That
    needs only [con > p - board_length] before publishing index [p], so
    this program still verifies with two tasks pending on the board;
    {!wsm_reuse_pending} binds the stricter drained-window rule. *)

val wsm_reuse_pending : program
(** Nine rounds of two pushes and two pops wrap the board the same way.
    After each round's second push a drained-window publish leaves the
    newer task private, so the first pop returns it; publishing onto an
    undrained window puts both tasks on the board, and that pop returns
    the older one, which the serial LIFO check reports. *)

val random_program : rng:(int -> int) -> ops:int -> thieves:int -> program
(** [ops] owner operations (pushes of distinct values and pops, drawn
    with [rng n] uniform in [\[0, n)]), and [thieves] thieves of one
    [popTop] each. *)
