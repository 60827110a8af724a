(** Growable circular work-stealing deque (extension beyond the paper).

    The ABP deque ({!Atomic_deque}) uses a fixed array with absolute
    indices, so it can overflow, and its [popBottom] reset path is what
    forces the [tag] machinery.  This module implements the successor
    design from the literature the paper seeded (Chase and Lev,
    "Dynamic Circular Work-Stealing Deques", SPAA 2005): indices grow
    monotonically over a circular buffer that doubles on demand, so

    - [push_bottom] never fails (the buffer grows, preserving logical
      indices), and
    - [top] never decreases, which eliminates the ABA hazard without any
      tag.

    Same owner/thief discipline and relaxed [pop_top] semantics as
    {!Spec.S}.  Included as the natural "future work" of Section 6 and
    benchmarked against the fixed-array original in E15. *)

include Spec.S

val pop_top_detailed : 'a t -> 'a Spec.detailed
(** [pop_top] with the cause of a NIL preserved: {!Spec.Empty} when
    [bottom <= top] was observed, {!Spec.Contended} when the CAS on
    [top] lost to a racing process. *)

val pop_bottom_detailed : 'a t -> 'a Spec.detailed
(** [pop_bottom] with the cause of a NIL preserved: {!Spec.Contended}
    when the last element's CAS on [top] lost to a thief. *)

val capacity : 'a t -> int
(** Current buffer capacity (a power of two).  Doubles on overflow and
    halves again once the live size drops below a quarter of it (the
    Section 4 reclamation), never below {!initial_capacity}. *)

val initial_capacity : 'a t -> int
(** The creation-time capacity (rounded up to a power of two): the
    floor the Section 4 reclamation never shrinks below. *)

val grows : 'a t -> int
(** Number of buffer-doubling events so far (diagnostics). *)

val shrinks : 'a t -> int
(** Number of buffer-halving (reclamation) events so far: the owner
    halves the buffer when it observes [size < capacity / 4] and the
    capacity is above {!initial_capacity} — Chase-Lev Section 4's
    shrinking, published exactly like growth (fresh buffer through the
    [active] atomic; the old buffer is never written again, so a
    concurrent thief's CAS-on-[top] validation argument carries over
    unchanged). *)
