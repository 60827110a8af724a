(** Fence-free work-stealing deque {e with multiplicity}, after
    Castañeda and Piña, {e Fully Read/Write Fence-Free Work-Stealing
    with Multiplicity} (arXiv:2008.04424).

    Unlike {!Atomic_deque} (the paper's Figure 5), the steal path here
    performs no CAS, no fetch-and-add and no store-load fence — only
    atomic loads and one blind atomic store.  What is given up is
    exactly-once extraction:

    {b Multiplicity contract.}  Every pushed item is returned by at
    least one extraction ([pop_bottom] or [pop_top]) before the deque
    is drained — no item is ever lost — but a [pop_top] that races
    other thieves, or the owner's reclaim of the last published item,
    may return an item that another extraction also returned.
    Duplicates are the {e only} relaxation: no garbage, no skips, no
    reordering of the published stream.  [pop_top] may also return the
    relaxed semantics' legal NIL while the owner still holds private
    (unpublished) work.

    Serially — one process, no concurrent extraction — the deque is
    exactly-once and [pop_bottom] agrees step-for-step with the LIFO
    {!Spec.Reference}.

    {b Scheduler integration.}  A scheduler running on this deque must
    make execution at-most-once itself, e.g. with a per-task claim flag
    resolved by a single [Atomic.compare_and_set] at execution time —
    off the steal path, preserving the fence-free property where it
    matters.  {!Abp_hood.Pool} does not offer this deque as a backend:
    the claim flag would cost every task an allocation and a CAS.  Its
    owner path is slower than {!Atomic_deque}'s only with the main
    domain alone: with one other domain running, a probe on a 2-vCPU
    host read its push+pop at 33.5–34.6 ns against ABP's 44–46 ns, as
    its owner path has no CAS.

    Use {!Spec.Multiset_reference} (with [allows_multiplicity = true])
    as the differential-test oracle; {!Spec.Reference} would flag the
    legal duplicates as bugs. *)

include Spec.DETAILED

val pop_bottom : 'a t -> 'a option
(** Owner pop; plain non-atomic fast path over the private ring. *)

val pop_top : 'a t -> 'a option
(** Thief pop: atomic loads plus one blind store, no read-modify-write.
    May duplicate under contention per the multiplicity contract. *)

val is_empty : 'a t -> bool
(** Advisory snapshot; racy under concurrency. *)

val board_length : int
(** Capacity of the publication ring visible to thieves.  The board
    holds at most {e one} pending task at any time (the globally
    oldest); the ring depth only spaces out index reuse, shrinking the
    window in which a stale thief can manufacture a duplicate. *)
