(** The non-blocking ABP deque on OCaml 5 atomics (paper, Figure 5).

    A faithful transliteration of the paper's three methods onto
    [Atomic.t]:

    - the [age] variable is a packed {!Age.t} stored in an [int Atomic.t],
      so [cas] is a true single-word compare-and-swap on an immediate
      value, exactly as in the paper (no pointer/ABA subtleties);
    - [bot] is an [int Atomic.t]: the paper stores it with plain [load]s
      and [store]s and remarks that "on a multiprocessor that does not
      support sequential consistency, extra memory operation ordering
      instructions may be needed" — on OCaml 5's memory model the atomic
      accesses supply exactly that ordering;
    - the array is fixed-capacity, as in the paper; [push_bottom] raises
      [Failure "Atomic_deque: overflow"] when full.

    Owner methods are wait-free (constant instruction count); [pop_top]
    meets the relaxed semantics of {!Spec}: it returns [None] only if at
    some instant the deque was empty or another process removed the
    topmost item. *)

include Spec.S

val default_capacity : int

val pop_top_detailed : 'a t -> 'a Spec.detailed
(** [pop_top] with the cause of a NIL preserved: {!Spec.Empty} for the
    Figure 5 line-3 empty observation, {!Spec.Contended} for a lost
    line-6 CAS.  [pop_top t = None] iff [pop_top_detailed t] is [Empty]
    or [Contended]. *)

val pop_bottom_detailed : 'a t -> 'a Spec.detailed
(** [pop_bottom] with the cause of a NIL preserved: {!Spec.Contended}
    when the last item was stolen during the invocation (the line-11 CAS
    lost), {!Spec.Empty} otherwise. *)

val tag_of : 'a t -> int
(** Current tag value (diagnostics/tests). *)

val top_of : 'a t -> int
(** Current top index (diagnostics/tests). *)

val bot_of : 'a t -> int
(** Current bottom index (diagnostics/tests). *)
