(* Elastic resizing: manual grow/shrink of a sharded topology's active
   set, the way the paper's kernel grows and shrinks a computation's
   processor set.  Workers never see this module except through the
   routing-table swap and the resume-inbox redirect that
   [Shard.quiesce]/[reactivate] perform. *)

module Counters = Abp_trace.Counters
module Clock = Abp_trace.Clock
module Sink = Abp_trace.Sink
module Event = Abp_trace.Event

type direction = Up | Down
type resize = { at_ns : int; dir : direction; shard : int; active_after : int }

type t = {
  shard : Shard.t;
  trace : Sink.t option;
  min_shards : int;
  max_shards : int;
  (* The supervisor's own counter record, written only by the caller of
     the scale operations.  Cross-domain contributions (the migration
     forwarders run wherever a fulfil happens) go through [migrated]
     and are folded in by [counters]. *)
  ctrs : Counters.t;
  migrated : int Atomic.t;
  (* Resize-event log, newest first; readers snapshot under the lock. *)
  resize_log : resize list ref;
  log_lock : Mutex.t;
}

let create ?trace ?(min_shards = 1) ?max_shards shard =
  let k = Shard.shards shard in
  let max_shards = Option.value max_shards ~default:k in
  if min_shards < 1 || min_shards > k then
    invalid_arg "Supervisor.create: min_shards must be in [1, shards]";
  if max_shards < min_shards || max_shards > k then
    invalid_arg "Supervisor.create: max_shards must be in [min_shards, shards]";
  (match trace with
  | Some s when Sink.workers s < 1 -> invalid_arg "Supervisor.create: trace sink needs a worker"
  | _ -> ());
  {
    shard;
    trace;
    min_shards;
    max_shards;
    ctrs = Counters.create ();
    migrated = Atomic.make 0;
    resize_log = ref [];
    log_lock = Mutex.create ();
  }

let record t dir shard =
  let n = Shard.active_count t.shard in
  (match dir with
  | Up -> Counters.incr t.ctrs Counters.scale_ups
  | Down -> Counters.incr t.ctrs Counters.scale_downs);
  Mutex.lock t.log_lock;
  t.resize_log := { at_ns = Clock.now (); dir; shard; active_after = n } :: !(t.resize_log);
  Mutex.unlock t.log_lock;
  match t.trace with Some s -> Sink.emit s ~worker:0 ~arg:n Event.Scale | None -> ()

let scale_up t =
  if Shard.active_count t.shard >= t.max_shards then false
  else begin
    let k = Shard.shards t.shard in
    (* Reactivate the lowest-numbered spare: deterministic, and keeps
       the active set dense for affinity-key stability. *)
    let rec first i =
      if i >= k then None else if Shard.is_active t.shard i then first (i + 1) else Some i
    in
    match first 0 with
    | None -> false
    | Some i ->
        if Shard.reactivate t.shard ~shard:i then begin
          record t Up i;
          true
        end
        else false
  end

let scale_down t =
  let act = Shard.active_shards t.shard in
  let n = Array.length act in
  if n <= t.min_shards || n <= 1 then false
  else begin
    (* Victim: the least-loaded active shard (cheapest to drain);
       adopter: the least-loaded survivor (cheapest to steal back from,
       the localized-stealing placement argument). *)
    let depth i = Serve.inbox_depth (Shard.serve t.shard i) in
    let by_depth = Array.copy act in
    Array.sort (fun a b -> compare (depth a, a) (depth b, b)) by_depth;
    let victim = by_depth.(0) and target = by_depth.(1) in
    let on_migrate () = Atomic.incr t.migrated in
    match Shard.quiesce ~on_migrate t.shard ~shard:victim ~target with
    | Some _ ->
        record t Down victim;
        true
    | None -> false
  end

let scale_up_count t = Counters.get t.ctrs Counters.scale_ups
let scale_down_count t = Counters.get t.ctrs Counters.scale_downs
let migrated t = Atomic.get t.migrated

let counters t =
  let c = Counters.copy t.ctrs in
  Counters.add_n c Counters.migrated_continuations (Atomic.get t.migrated);
  c

let resizes t =
  Mutex.lock t.log_lock;
  let l = !(t.resize_log) in
  Mutex.unlock t.log_lock;
  List.rev l

let direction_name = function Up -> "up" | Down -> "down"
