(** Deque method specification (paper, Section 3.2) and the serial
    reference implementation used as a test oracle.

    A work-stealing deque supports three methods: [push_bottom] and
    [pop_bottom], invoked only by the owner, and [pop_top], invoked by
    thieves.  ([push_top] is not needed by the algorithm and not
    supported.)

    {b Ideal semantics}: every invocation is linearizable.

    {b Relaxed semantics}: [pop_top] may additionally return [None] if at
    some instant during the invocation the deque was empty {e or} the
    topmost item was removed by another process.  A constant-time
    implementation meeting the relaxed semantics is non-blocking and
    suffices for the performance bounds; the paper's Figure 5 (our
    {!Abp}, {!Atomic_deque}) is such an implementation. *)

module type S = sig
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  (** [capacity] bounds the number of simultaneously stored items for the
      fixed-array implementations; the reference implementation ignores
      it. *)

  val push_bottom : 'a t -> 'a -> unit
  (** Owner only.  Raises [Failure] on overflow for fixed-capacity
      implementations. *)

  val pop_bottom : 'a t -> 'a option
  (** Owner only; [None] iff the deque is empty (ideal semantics for
      owner methods). *)

  val pop_top : 'a t -> 'a option
  (** Thief method; may spuriously return [None] under contention per the
      relaxed semantics. *)

  val is_empty : 'a t -> bool
  (** Advisory snapshot; racy under concurrency. *)

  val size : 'a t -> int
  (** Advisory snapshot; racy under concurrency. *)
end

module type CORE = sig
  type 'e t
  (** A deque of elements of type ['e], two of which are its sentinels. *)

  val create : ?capacity:int -> empty:'e -> lost:'e -> unit -> 'e t
  (** [capacity] as in {!S.create}.  [empty] and [lost] are the values
      the pops return instead of an element.  They are never pushed,
      and no pushed element is [==] to either, so the caller tells an
      element from a NIL by physical equality; with [empty != lost] it
      tells the two causes apart too. *)

  val push : 'e t -> 'e -> int
  (** Owner only: pushBottom, returning the size the push left (an
      advisory snapshot, as {!size}).  Raises [Failure] on overflow for
      fixed-capacity implementations. *)

  val pop_bottom : 'e t -> 'e
  (** Owner only: popBottom.  The element; [lost] when its last
      element went to a thief during the invocation; else [empty], the
      deque being empty. *)

  val pop_top : 'e t -> 'e
  (** Thief method: popTop.  The element, [empty] when the deque was
      observed empty, or [lost] for a lost CAS (implementations without
      a CAS never return [lost]).  Either NIL meets the relaxed
      semantics. *)

  val size : 'e t -> int
  (** Advisory snapshot; racy under concurrency. *)
end
(** The one implementation of each deque, in which every Figure 5
    method is written once; the instrumented scheduler's view.  The
    slots hold the elements themselves, so a pop allocates nothing and
    its outcome needs no box: {!Abp_hood.Pool.create} builds each
    worker's deque over its tasks, with two private closures as the
    sentinels, and counts [lost] as a CAS failure. *)

module Of_core (C : CORE) : S with type 'a t = 'a option C.t
(** The option API of a core: [None] is both sentinels and a push
    stores [Some x], so a NIL of either cause is [None]. *)

module Reference : sig
  include S

  val to_list : 'a t -> 'a list
  (** Contents from top to bottom (test helper). *)
end
(** Serial deque with the ideal semantics; the oracle for unit,
    property, and model-checking tests. *)

module Multiset_reference : sig
  type verdict =
    | Unique  (** A fresh copy: extracted no more times than pushed. *)
    | Duplicate
        (** Pushed, but every pushed copy was already extracted — legal
            only for backends with multiplicity ({!Wsm_deque}). *)
    | Never_pushed  (** Never pushed at all — always a bug. *)

  type 'a t

  val create : unit -> 'a t

  val push : 'a t -> 'a -> unit
  (** Record that [x] entered the deque (once more). *)

  val extract : 'a t -> 'a -> verdict
  (** Record that some extraction returned [x], and classify it against
      the push history so far. *)

  val pushes : 'a t -> int
  val uniques : 'a t -> int
  val duplicates : 'a t -> int
  val never_pushed : 'a t -> int

  val outstanding : 'a t -> int
  (** Items pushed and not yet extracted even once — [0] after a
      complete drain (no item lost). *)

  val legal : allows_multiplicity:bool -> 'a t -> bool
  (** Whole-history judgment: no [Never_pushed] verdict occurred, and —
      unless [allows_multiplicity] — no [Duplicate] either.  With
      [allows_multiplicity = false] this is as strict about duplication
      as {!Reference}-based differentials, which is what lets the same
      harness test both exactly-once backends and {!Wsm_deque}. *)
end
(** Order-free oracle for relaxed-semantics differentials: tracks how
    many times each item was pushed and extracted, so an extraction can
    be judged "was pushed and not yet popped more times than pushed"
    without assuming exactly-once extraction.  Push {e distinct} values
    (e.g. a running integer) for meaningful verdicts. *)
