(** A simulated downstream service for exercising suspendable requests:
    {!call} returns a promise immediately and dedicated backend domains
    fulfil it after the requested delay.

    Because fulfilment always happens on a non-pool domain, an awaiting
    request's parked continuation is re-injected through its home
    pool's {e resume inbox} and must wake parked thieves — the
    external-fulfiller path of {!Abp_fiber.Fiber}, which is the one the
    serving experiments (E31, [hoodserve --await-depth]) are designed
    to stress. *)

type t

val create : ?workers:int -> unit -> t
(** Start [workers] (default 1) backend domains popping a shared FIFO
    of (due-time, fulfil) pairs; each sleeps until its entry is due,
    then fulfils.  Raises [Invalid_argument] for [workers < 1]. *)

val call : t -> delay:float -> 'a -> 'a Abp_fiber.Fiber.Promise.t
(** Enqueue a simulated request: the returned promise is fulfilled with
    the given value roughly [delay] seconds from now (never early; a
    busy backend fulfils late).  Callable from any domain.  Raises
    [Invalid_argument] after {!stop}. *)

val calls : t -> int
(** Total {!call}s accepted so far. *)

val lateness : t -> Abp_stats.Log_histogram.t
(** How late each fulfil came: fulfil time minus due time, in
    nanoseconds, one sample per fulfilled call (recorded just before
    the promise is fulfilled, so a call whose promise has resolved is
    counted).  This is the timer's share of an await's latency, apart
    from the scheduler's resume lag.  Never negative: the backend
    sleeps with {!Abp_trace.Clock.sleep_until}, which never returns
    early.  A fresh merge of the per-domain histograms; read it after
    the calls of interest have resolved. *)

val stop : t -> unit
(** Stop accepting calls, fulfil everything still queued (honouring due
    times), and join the backend domains.  Every promise returned by
    {!call} is resolved once [stop] returns — the precondition for a
    clean {!Shard.drain} of awaiting requests. *)
