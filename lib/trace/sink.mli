(** A telemetry sink: one {!Counters.t} record and one event {!Ring.t}
    per worker.

    The sink is the object threaded through the instrumented schedulers
    ({!Abp_sim.Engine} and {!Abp_hood.Pool}).  Hot-path writes touch only
    the calling worker's record and ring — no cross-worker sharing — so
    instrumentation adds no contention.  Aggregation ({!totals},
    {!events}) is performed after the run, once the workers have
    quiesced. *)

type t

val create : ?ring_capacity:int -> workers:int -> unit -> t
(** [workers >= 1] records and rings.  [ring_capacity] (default 0)
    bounds each worker's event ring; 0 disables event collection
    entirely ({!events_enabled} is false and emits are no-ops, so a
    counters-only sink costs nothing per event). *)

val workers : t -> int
val counters : t -> int -> Counters.t
(** Worker [i]'s record — the worker mutates it directly. *)

val events_enabled : t -> bool

val emit : t -> worker:int -> ?arg:int -> Event.kind -> unit
(** Append an event stamped with the monotonic clock, in seconds
    ([Clock.to_s (Clock.now ())]; [arg] default [-1]). *)

val emit_at : t -> worker:int -> time:float -> ?arg:int -> Event.kind -> unit
(** Append an event with an explicit timestamp: producers with a logical
    clock (the simulator's round number) use this instead of {!emit}. *)

val totals : t -> Counters.t
(** Fresh aggregate over all workers. *)

val per_worker : t -> Counters.t array
(** The live per-worker records (not copies). *)

val events : t -> Event.t list
(** All retained events, merged across workers, sorted by time. *)

val dropped : t -> int
(** Total events dropped across all rings. *)
