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

module Core : Spec.CORE
(** Chase-Lev's methods.  [push] never fails.  [pop_top] returns
    [empty] when [bottom <= top] was observed and [lost] when its CAS
    on [top] lost to a racing process; [pop_bottom] returns [lost] when
    the last element's CAS on [top] lost to a thief. *)

include Spec.S with type 'a t = 'a option Core.t

val capacity : 'e Core.t -> int
(** Current buffer capacity (a power of two).  Doubles on overflow and
    halves again once the live size drops below a quarter of it (the
    Section 4 reclamation), never below {!initial_capacity}. *)

val initial_capacity : 'e Core.t -> int
(** The creation-time capacity (rounded up to a power of two): the
    floor the Section 4 reclamation never shrinks below. *)

val grows : 'e Core.t -> int
(** Number of buffer-doubling events so far (diagnostics). *)

val shrinks : 'e Core.t -> int
(** Number of buffer-halving (reclamation) events so far: the owner
    halves the buffer when it observes [size < capacity / 4] and the
    capacity is above {!initial_capacity} — Chase-Lev Section 4's
    shrinking, published exactly like growth (fresh buffer through the
    [active] atomic; the old buffer is never written again, so a
    concurrent thief's CAS-on-[top] validation argument carries over
    unchanged). *)
