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

module Core : Spec.CORE
(** Figure 5 itself.  [push] raises [Failure "Atomic_deque: overflow"]
    when full.  [pop_top] returns [empty] for the line-3 empty
    observation and [lost] for a lost line-6 CAS; [pop_bottom] returns
    [lost] when the last item was stolen during the invocation (the
    line-11 CAS lost) and [empty] otherwise. *)

include Spec.S with type 'a t = 'a option Core.t

val default_capacity : int

val tag_of : 'e Core.t -> int
(** Current tag value (diagnostics/tests). *)

val top_of : 'e Core.t -> int
(** Current top index (diagnostics/tests). *)

val bot_of : 'e Core.t -> int
(** Current bottom index (diagnostics/tests). *)
