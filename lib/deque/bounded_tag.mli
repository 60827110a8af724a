(** Wraparound tag arithmetic ("bounded tags", paper Section 3.3, citing
    Moir 1997).

    The deque's [tag] field is presented in the paper as an unbounded
    counter, with the remark that "such a tag might wrap around, so in
    practice we implement the tag by adapting the bounded tags
    algorithm".  The safety condition under wraparound is the usual one
    for sequence numbers: a thief that read [oldAge] must complete its
    [cas] before the tag is incremented [2^width] further times, because
    after exactly [2^width] increments the packed word repeats and the
    [cas] could succeed spuriously (the ABA problem at one remove).

    This module provides [width]-bit modular tags and the window
    predicate capturing that condition; the model checker's copy of
    {!Atomic_deque} ([lib/mcheck]) wraps its tag at configurable widths
    with {!succ} to exhibit the failure at tiny widths,
    and {!Atomic_deque} uses the full 31 bits of {!Age} (wraparound needs
    2{^31} owner resets during a single in-flight steal — unreachable in
    practice, and impossible in OCaml within a GC quantum). *)

val max_width : int
(** 31: tags must fit in the {!Age} field. *)

val succ : width:int -> int -> int
(** [succ ~width tag] is [tag + 1 (mod 2^width)].  [width = 0] is the
    degenerate "no tag" case: the result is always 0.  Requires
    [0 <= width <= max_width] and [0 <= tag < 2^(max width 1)]. *)

val distance : width:int -> int -> int -> int
(** [distance ~width a b] is the number of [succ] steps from [a] to [b]
    (in [\[0, 2^width)]). *)

val safe_window : width:int -> in_flight_resets:int -> bool
(** [safe_window ~width ~in_flight_resets] holds iff a thief whose steal
    spans at most [in_flight_resets] owner tag-increments can never be
    fooled by wraparound, i.e. [in_flight_resets < 2^width]. *)
