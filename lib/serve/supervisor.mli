(** Elastic resizing of a sharded topology: manual scale operations with
    parked-continuation migration.

    The paper's setting is scheduling under {e changing} processor
    availability — the kernel grows and shrinks what a computation
    actually gets, and the work stealer adapts within
    O(T{_1}/P̄ + T{_∞}·P/P̄).  This module lets a caller play that role
    for a sharded serving topology ({!Shard}), one resize at a time:

    - {!scale_up} reactivates a quiesced spare ({!Shard.reactivate});
    - {!scale_down} quiesces the least-loaded active shard
      ({!Shard.quiesce}): stop its admission, swap the routing table,
      pump its queued jobs and {e migrate its parked fiber
      continuations} to the least-loaded survivor via the resume inbox
      — no awaiter is stranded, and conservation holds shard-wise
      across every resize.

    Each resize is logged, counted and (when traced) emitted as an
    {!Abp_trace.Event.Scale} event.  Nothing here runs on the worker
    hot path: workers only ever observe the swapped routing table and
    the redirected resume inbox. *)

type direction = Up | Down

type resize = {
  at_ns : int;  (** {!Abp_trace.Clock.now} at record time *)
  dir : direction;
  shard : int;  (** the shard activated (Up) or quiesced (Down) *)
  active_after : int;  (** active-shard count after the resize *)
}

type t

val create : ?trace:Abp_trace.Sink.t -> ?min_shards:int -> ?max_shards:int -> Shard.t -> t
(** Wrap an existing topology (all of whose pools were created up front
    — OCaml domains cannot be restarted, so "scaling" toggles
    routing-table membership).  [trace], when given, receives one
    {!Abp_trace.Event.Scale} event per resize on worker 0 (pass a
    dedicated 1-worker sink — the caller is not a pool worker).
    [min_shards]/[max_shards] clamp the active count (defaults: 1 and
    the topology's shard count).
    @raise Invalid_argument on bounds outside
    [1 <= min <= max <= shards]. *)

val scale_up : t -> bool
(** Reactivate the lowest-numbered quiesced spare.  [false] when
    already at [max_shards], no spare exists, or the topology is
    closing.  Single caller: not for concurrent use. *)

val scale_down : t -> bool
(** Quiesce the least-loaded active shard into the least-loaded
    survivor.  [false] at [min_shards] (or with one active shard), or
    when the topology is closing.  Same single-caller rule as
    {!scale_up}. *)

val scale_up_count : t -> int

val scale_down_count : t -> int

val migrated : t -> int
(** Items migrated across all quiesces: queued jobs pumped to the
    adopter plus parked continuations forwarded by the resume redirect
    (late off-pool fulfils keep counting here after the quiesce call
    returned). *)

val resizes : t -> resize list
(** The resize-event log, chronological. *)

val counters : t -> Abp_trace.Counters.t
(** Snapshot of the supervisor's counter record ([scale_ups],
    [scale_downs], [migrated_continuations]) — add it to a report's
    worker records for a full-system view. *)

val direction_name : direction -> string
(** ["up"] / ["down"]. *)
