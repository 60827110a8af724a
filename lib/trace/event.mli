(** Structured scheduler events.

    An event is a point observation stamped with the worker that produced
    it and a time: the kernel round number in the simulator, or a
    monotonic-clock reading (seconds) on the Hood runtime — the producer
    chooses the clock (see {!Sink}).  [arg] carries the event's subject:
    the dag node for [Spawn]/[Execute], the victim process for
    [Steal]/[Idle], and [-1] when there is no subject. *)

type kind =
  | Spawn  (** a task/node was pushed on the owner's deque *)
  | Steal  (** a [popTop] on [arg]'s deque returned a task *)
  | Execute  (** a node/task was executed (node id in [arg] when known) *)
  | Idle  (** a steal attempt on [arg]'s deque came back empty-handed *)
  | Yield  (** the thief yielded between failed steal attempts *)
  | Park
      (** the thief exhausted its backoff and blocked on the pool's
          condition variable until the next push or shutdown (Hood
          runtime only) *)
  | Inject
      (** an externally submitted task was acquired from the pool's
          injector inbox ({!Abp_serve}), after both the own-deque pop and
          a steal attempt failed (Hood runtime only) *)
  | Cross
      (** a task was acquired across a shard boundary — stolen from a
          remote micropool's deques or drained from a remote shard's
          inbox — after every intra-shard source failed
          ({!Abp_serve.Shard}) *)
  | Suspend
      (** the worker reached a gate safe point with its preemption gate
          closed and blocked (the multiprogramming harness's cooperative
          analogue of a kernel descheduling; Hood runtime only) *)
  | Resume
      (** the worker's preemption gate reopened and it resumed the
          scheduling loop (Hood runtime only) *)
  | Fiber
      (** a fiber suspension-protocol step: [arg = 0] when a task
          performed [Await] on a pending promise and parked its
          continuation (freeing the worker), [arg = 1] when a parked
          continuation was resumed on this worker
          ({!Abp_fiber.Fiber}; Hood runtime only) *)

type t = { kind : kind; worker : int; time : float; arg : int }

val kind_name : kind -> string
(** Lower-case stable name ("spawn", "steal", ...). *)

val pp : Format.formatter -> t -> unit
