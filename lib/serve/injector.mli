(** Bounded multi-producer multi-consumer injector queue (the global
    inboxes of each {!Shard} micropool).

    The paper's runtime is closed: work enters only by a worker pushing
    onto its own deque.  Opening the pool to external submission needs
    one shared entry queue that arbitrary domains can push into and that
    idle workers poll — the classic deque-plus-injector pairing of
    work-stealing runtimes that accept outside work (Rito & Paulino
    2021; Castañeda & Piña 2021).  The cost model is deliberately
    asymmetric: submissions are rare relative to deque operations, so
    the injector may use CAS loops freely while the per-worker deques
    keep the paper's non-blocking single-owner discipline.

    The implementation is the bounded array queue with per-slot sequence
    numbers (Vyukov's MPMC queue): producers claim a slot by CAS on the
    [tail] cursor, publish by storing the slot's sequence number;
    consumers symmetrically on [head].  The two cursors are padded to a
    cache line each, since every operation contends on one of them; the
    slots are not, since they are touched in cursor order and a padded
    slot would cost a cache line where an unpadded one costs 4 words
    (its 2-word sequence-number atomic and its two array cells).

    The slots are allocated in segments of 256 (fewer if [capacity] is
    smaller), each on the first push that reaches it: [create] allocates
    only a directory of empty segment cells.  The producer that first
    reaches a segment installs it with one CAS on its cell (a loser uses
    the winner's segment); a consumer that finds the cell empty reports
    the queue empty, since the producer of its ticket has not published.
    A segment's sequence numbers start at their lap-0 tickets, which is
    right because tickets advance one by one and a segment is installed
    before any of its tickets is claimed.  The bound of 256 keeps each
    segment's arrays, and the directory up to 65 536 slots, within the
    minor heap's largest block ([Max_young_wosize] = 256 words): a larger
    array of young atomics is allocated in the major heap after a forced
    minor collection, which stops every domain.  So [create] at 65 536
    slots allocates about 850 young words and forces no collection; after
    one lap every segment exists, at about 4 words per slot.

    Every method is lock-free: a stalled producer or consumer can delay
    only the slot it claimed, never the whole queue, and a producer
    stalled while installing a segment holds nothing, since any other
    producer installs its own.  FIFO per producer; no global order
    guarantee under concurrency (none is needed: fairness at the serve
    layer comes from the bounded capacity and admission control).

    All functions are safe to call from any domain. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default 1024, rounded up to a power of two, minimum 2)
    bounds the number of enqueued-but-not-yet-consumed items; the slots
    are allocated 256 at a time as tickets first reach them; a full
    inbox is the backpressure signal {!Shard.try_submit} surfaces as
    [Error Inbox_full].  Requires [capacity >= 1]. *)

val capacity : 'a t -> int
(** The rounded-up slot count. *)

val try_push : 'a t -> 'a -> bool
(** Enqueue; [false] when the queue is full (never blocks). *)

val try_pop : 'a t -> 'a option
(** Dequeue; [None] when the queue is empty (never blocks). *)

val size : 'a t -> int
(** Advisory occupancy snapshot (exact when quiescent) — the injector
    depth gauge reported by {!Shard.pp_report}. *)

val is_empty : 'a t -> bool
(** [size t = 0]; {!Shard}'s lane source uses this as its [pending]
    check, which the pool's parking protocol consults. *)
