(** Canonical model-checking scenarios for the ABP deque (experiment
    E14). *)

val aba_scenario : Explorer.program
(** The Section 3.3 ABA scenario: the owner drains the deque (resetting
    [top]) and refills it while one thief is preempted between its read
    of [age] and its [cas].  With the tag field the thief's [cas] fails
    and it returns NIL; {e without} the tag ([tag_width = 0]) the [cas]
    succeeds on the recycled index and the checker reports a conservation
    violation (a node consumed twice and another lost). *)

val wraparound_scenario : Explorer.program
(** Two owner resets in one thief window: demonstrates the bounded-tags
    safety condition — [tag_width = 1] aliases after 2 resets and fails,
    [tag_width >= 2] is safe ({!Abp_deque.Bounded_tag.safe_window}). *)

val two_thieves : Explorer.program
(** Three pushes racing two thieves: exercises thief-vs-thief [cas]
    contention and NIL-under-contention legality. *)

val owner_vs_thief_interleave : Explorer.program
(** Pushes and owner pops racing one thief around the one-element state,
    where the [popBottom]/[popTop] cas race lives. *)

val wsm_thief : Wsm_explorer.program
(** The {!Abp_deque.Wsm_deque} owner/thief race around the unfenced
    cursor reads: two thieves race the same published window while the
    owner drains and republishes.  Interleavings where both thieves
    read the same [con] exhibit multiplicity
    ({!Wsm_explorer.report.max_duplicates} [> 0]); the explorer
    verifies the relaxation goes no further (nothing lost, nothing
    invented, serial executions exact). *)

val wsm_reuse : Wsm_explorer.program
(** Board-slot reuse: enough publishes to wrap
    {!Abp_deque.Wsm_step.board_length} while a thief's invocation can
    straddle a slot overwrite — the stale-read scenario made safe by
    the publish-requires-drained rule. *)

val random_program : rng:(int -> int) -> ops:int -> thieves:int -> Explorer.program
(** Random small program: [ops] owner operations (pushes of distinct
    values and pops, drawn with [rng n] uniform in [0, n)), and [thieves]
    thief threads of one [popTop] each. *)
