(** Bounded multi-producer multi-consumer injector queue (the global
    inbox of {!Serve}).

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
    (its 2-word sequence-number atomic and its two array cells).  Every
    method is lock-free: a stalled producer or consumer can delay only
    the slot it claimed, never the whole queue.  FIFO per producer; no
    global order guarantee under concurrency (none is needed: fairness
    at the serve layer comes from the bounded capacity and admission
    control).

    All functions are safe to call from any domain. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default 1024, rounded up to a power of two, minimum 2)
    bounds the number of enqueued-but-not-yet-consumed items; a full
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
    depth gauge reported by {!Serve.pp_report}. *)

val is_empty : 'a t -> bool
(** [size t = 0]; {!Serve}'s lane source uses this as its [pending]
    check, which the pool's parking protocol consults. *)
