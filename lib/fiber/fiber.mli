(** Effects-based suspendable tasks: promises, [await], and the
    handler the runtime wraps around every task.

    The paper's non-blocking scheduler assumes a processor never sits
    on a blocked thread.  This module makes that true for tasks that
    wait on values: [await] on a pending promise captures the task's
    one-shot continuation with an OCaml 5 effect, parks it on the
    promise's waiter list (lock-free CAS push), and returns the worker
    to its scheduling loop; [fulfil] hands each parked continuation
    back to the scheduler as an ordinary task.

    This library is a leaf: it does not know about pools.  The runtime
    supplies a {!sched} record saying where ready continuations go and
    what to count, and wraps task bodies in {!run}.  [Hood.Pool] does
    this for every task it executes, so any code running on a pool may
    [await] freely; [Serve] layers its own handler on top to count
    suspended requests for the conservation invariant. *)

(** Write-once cells resolved with a value ([fulfil]) or an exception
    ([fail]).  Any number of fibers may [await] the same promise; each
    parked continuation is resumed exactly once (checked exhaustively
    on this implementation by the [fiber_await] mcheck scenario). *)
module Promise : sig
  type 'a t
  (** A promise: pending, fulfilled with an ['a], or failed with an
      exception. *)

  val create : unit -> 'a t
  (** A fresh pending promise. *)

  val await : 'a t -> 'a
  (** Wait for the promise.  If it is already resolved this returns
      (or raises the stored exception, with its original backtrace)
      without suspending.  Otherwise it performs the [Await] effect:
      under a {!run} handler (any task on a pool) the current fiber
      suspends and its worker moves on; the fiber resumes when the
      promise is resolved.  With no {!run} handler on the stack, the
      perform raises [Effect.Unhandled] ([Serve.await] falls back to a
      blocking wait on it). *)

  val fulfil : 'a t -> 'a -> unit
  (** Resolve with a value and schedule every parked waiter (in park
      order).  @raise Invalid_argument if already resolved. *)

  val try_fulfil : 'a t -> 'a -> bool
  (** Like {!fulfil} but returns [false] instead of raising when the
      promise is already resolved. *)

  val fail : ?bt:Printexc.raw_backtrace -> 'a t -> exn -> unit
  (** Resolve with an exception; parked waiters are scheduled and
      each resumes by re-raising [exn] at its [await] point.
      @raise Invalid_argument if already resolved. *)

  val try_await : 'a t -> 'a option
  (** Non-blocking poll: [Some v] if fulfilled, [None] if pending;
      re-raises the stored exception if the promise failed. *)

  val is_resolved : 'a t -> bool
  (** [true] once fulfilled or failed. *)

  val peek : 'a t -> ('a, exn * Printexc.raw_backtrace) result option
  (** The resolved state without raising, [None] while pending. *)
end

type sched = {
  schedule : (unit -> unit) -> unit;
      (** Make a ready continuation runnable.
          Called once per parked waiter by [fulfil]/[fail], on
          whatever thread resolves the promise — the implementation
          must route to a worker (local deque push when the fulfiller
          is a worker, home-pool resume inbox otherwise). *)
  on_suspend : unit -> unit;
      (** Fired on the awaiting worker immediately after its
          continuation is parked on a promise. *)
  on_resume : unit -> unit;
      (** Fired on the executing worker immediately before a parked
          continuation is continued. *)
}
(** Runtime callbacks parameterizing the handler.  The record is
    per-pool (closures resolve the current worker dynamically), and
    layers compose by wrapping: [Serve] wraps the pool's sched to
    additionally count suspended requests. *)

val inline_sched : sched
(** Degenerate scheduler: ready continuations run immediately on the
    fulfilling thread, suspend/resume hooks are no-ops.  Lets
    [run]/[await]/[fulfil] be used without any pool (tests, simple
    pipelines). *)

val run : sched -> (unit -> unit) -> unit
(** [run sched body] executes [body] under the fiber handler.  If
    [body] (or a continuation of it) performs [Await] on a pending
    promise, [run] returns as soon as the continuation is parked —
    the rest of [body] runs later, wherever [sched.schedule] sends
    it.  Exceptions raised by [body] propagate to the caller of the
    frame that was running when they were raised (for a resumed
    continuation, that is the worker executing the resumption). *)

val await : 'a Promise.t -> 'a
(** Alias for {!Promise.await}. *)
