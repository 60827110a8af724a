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

type 'a detailed = Got of 'a | Empty | Contended
(** Outcome of a pop with the cause of failure preserved: [Empty] is the
    relaxed semantics' legal NIL (the deque was observed empty or
    drained), [Contended] means the invocation lost a CAS to a racing
    process.  Both map to [None] in the plain {!S} methods; the
    instrumented schedulers count them separately. *)

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

module type DETAILED = sig
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  val push_bottom : 'a t -> 'a -> unit

  val pop_bottom_detailed : 'a t -> 'a detailed
  (** Owner pop with the cause of a NIL preserved: [Contended] when the
      deque's last item was lost to a thief mid-invocation. *)

  val pop_top_detailed : 'a t -> 'a detailed
  (** Thief pop with the cause of a NIL preserved: [Contended] for a
      lost CAS (implementations without a CAS report only [Empty]). *)

  val size : 'a t -> int
end
(** The instrumented scheduler's view of a deque: {!Abp_hood.Pool.create}
    takes the selected implementation as a first-class module of this
    signature and closes each worker's deque into the record of
    operations its one scheduling loop ({!Abp_hood.Worker}) calls. *)

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
