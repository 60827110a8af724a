type t = {
  mutable pushes : int;
  mutable pops : int;
  mutable steal_attempts : int;
  mutable successful_steals : int;
  mutable stolen_tasks : int;
  mutable batch_steals : int;
  mutable steal_empties : int;
  mutable cas_failures_pop_top : int;
  mutable cas_failures_pop_bottom : int;
  mutable yields : int;
  mutable lock_spins : int;
  mutable deque_high_water : int;
  mutable max_steal_batch : int;
  mutable parks : int;
  mutable task_exceptions : int;
  mutable inject_polls : int;
  mutable inject_tasks : int;
  mutable inject_batches : int;
  mutable cross_polls : int;
  mutable cross_shard_steals : int;
  mutable cross_stolen_tasks : int;
  mutable gate_suspends : int;
  mutable gate_wait_ns : int;
  mutable directed_yields : int;
  mutable suspensions : int;
  mutable resumes : int;
  mutable suspended_peak : int;
  mutable lane_polls : int;
  mutable lane_tasks : int;
  mutable deadline_misses : int;
  mutable scale_ups : int;
  mutable scale_downs : int;
  mutable migrated_continuations : int;
  steal_batch_hist : int array;
  (* Victim-indexed successful-steal counts, grown on demand (a counter
     record does not know the pool size at creation).  Row [i] of the
     pool's pairwise steal matrix when this record belongs to worker
     [i]. *)
  mutable steal_victims : int array;
}

(* Tasks-per-steal histogram buckets: 1, 2, 3-4, 5-8, 9-16, >16. *)
let batch_buckets = 6
let batch_bucket_labels = [| "1"; "2"; "3-4"; "5-8"; "9-16"; ">16" |]

let batch_bucket n =
  if n <= 1 then 0
  else if n = 2 then 1
  else if n <= 4 then 2
  else if n <= 8 then 3
  else if n <= 16 then 4
  else 5

(* Each record is single-writer-hot (its owning worker bumps it on every
   scheduler action), so records allocated back to back must not share a
   cache line: pad each to a full line at creation. *)
let create () =
  Abp_deque.Padding.copy_as_padded
    {
      pushes = 0;
      pops = 0;
      steal_attempts = 0;
      successful_steals = 0;
      stolen_tasks = 0;
      batch_steals = 0;
      steal_empties = 0;
      cas_failures_pop_top = 0;
      cas_failures_pop_bottom = 0;
      yields = 0;
      lock_spins = 0;
      deque_high_water = 0;
      max_steal_batch = 0;
      parks = 0;
      task_exceptions = 0;
      inject_polls = 0;
      inject_tasks = 0;
      inject_batches = 0;
      cross_polls = 0;
      cross_shard_steals = 0;
      cross_stolen_tasks = 0;
      gate_suspends = 0;
      gate_wait_ns = 0;
      directed_yields = 0;
      suspensions = 0;
      resumes = 0;
      suspended_peak = 0;
      lane_polls = 0;
      lane_tasks = 0;
      deadline_misses = 0;
      scale_ups = 0;
      scale_downs = 0;
      migrated_continuations = 0;
      steal_batch_hist = Array.make batch_buckets 0;
      steal_victims = [||];
    }

let reset c =
  c.pushes <- 0;
  c.pops <- 0;
  c.steal_attempts <- 0;
  c.successful_steals <- 0;
  c.stolen_tasks <- 0;
  c.batch_steals <- 0;
  c.steal_empties <- 0;
  c.cas_failures_pop_top <- 0;
  c.cas_failures_pop_bottom <- 0;
  c.yields <- 0;
  c.lock_spins <- 0;
  c.deque_high_water <- 0;
  c.max_steal_batch <- 0;
  c.parks <- 0;
  c.task_exceptions <- 0;
  c.inject_polls <- 0;
  c.inject_tasks <- 0;
  c.inject_batches <- 0;
  c.cross_polls <- 0;
  c.cross_shard_steals <- 0;
  c.cross_stolen_tasks <- 0;
  c.gate_suspends <- 0;
  c.gate_wait_ns <- 0;
  c.directed_yields <- 0;
  c.suspensions <- 0;
  c.resumes <- 0;
  c.suspended_peak <- 0;
  c.lane_polls <- 0;
  c.lane_tasks <- 0;
  c.deadline_misses <- 0;
  c.scale_ups <- 0;
  c.scale_downs <- 0;
  c.migrated_continuations <- 0;
  Array.fill c.steal_batch_hist 0 batch_buckets 0;
  Array.fill c.steal_victims 0 (Array.length c.steal_victims) 0

let copy c =
  Abp_deque.Padding.copy_as_padded
    {
      c with
      pushes = c.pushes;
      steal_batch_hist = Array.copy c.steal_batch_hist;
      steal_victims = Array.copy c.steal_victims;
    }

let note_depth c n = if n > c.deque_high_water then c.deque_high_water <- n

(* One steal (or injector drain) transferred [n] tasks: feed the
   tasks-per-transfer telemetry. *)
let note_batch c n =
  if n > c.max_steal_batch then c.max_steal_batch <- n;
  let b = batch_bucket n in
  c.steal_batch_hist.(b) <- c.steal_batch_hist.(b) + 1

(* Ensure the victim vector spans index [v]; doubling keeps growth
   amortized O(1) per note on the (cold) first steals from new victims. *)
let ensure_victims c v =
  let n = Array.length c.steal_victims in
  if v >= n then begin
    let n' = max (v + 1) (max 4 (2 * n)) in
    let a = Array.make n' 0 in
    Array.blit c.steal_victims 0 a 0 n;
    c.steal_victims <- a
  end

let note_victim c v =
  if v >= 0 then begin
    ensure_victims c v;
    c.steal_victims.(v) <- c.steal_victims.(v) + 1
  end

let victim_counts c = Array.copy c.steal_victims

let add ~into c =
  into.pushes <- into.pushes + c.pushes;
  into.pops <- into.pops + c.pops;
  into.steal_attempts <- into.steal_attempts + c.steal_attempts;
  into.successful_steals <- into.successful_steals + c.successful_steals;
  into.stolen_tasks <- into.stolen_tasks + c.stolen_tasks;
  into.batch_steals <- into.batch_steals + c.batch_steals;
  into.steal_empties <- into.steal_empties + c.steal_empties;
  into.cas_failures_pop_top <- into.cas_failures_pop_top + c.cas_failures_pop_top;
  into.cas_failures_pop_bottom <- into.cas_failures_pop_bottom + c.cas_failures_pop_bottom;
  into.yields <- into.yields + c.yields;
  into.lock_spins <- into.lock_spins + c.lock_spins;
  into.deque_high_water <- max into.deque_high_water c.deque_high_water;
  into.max_steal_batch <- max into.max_steal_batch c.max_steal_batch;
  into.parks <- into.parks + c.parks;
  into.task_exceptions <- into.task_exceptions + c.task_exceptions;
  into.inject_polls <- into.inject_polls + c.inject_polls;
  into.inject_tasks <- into.inject_tasks + c.inject_tasks;
  into.inject_batches <- into.inject_batches + c.inject_batches;
  into.cross_polls <- into.cross_polls + c.cross_polls;
  into.cross_shard_steals <- into.cross_shard_steals + c.cross_shard_steals;
  into.cross_stolen_tasks <- into.cross_stolen_tasks + c.cross_stolen_tasks;
  into.gate_suspends <- into.gate_suspends + c.gate_suspends;
  into.gate_wait_ns <- into.gate_wait_ns + c.gate_wait_ns;
  into.directed_yields <- into.directed_yields + c.directed_yields;
  into.suspensions <- into.suspensions + c.suspensions;
  into.resumes <- into.resumes + c.resumes;
  into.suspended_peak <- max into.suspended_peak c.suspended_peak;
  into.lane_polls <- into.lane_polls + c.lane_polls;
  into.lane_tasks <- into.lane_tasks + c.lane_tasks;
  into.deadline_misses <- into.deadline_misses + c.deadline_misses;
  into.scale_ups <- into.scale_ups + c.scale_ups;
  into.scale_downs <- into.scale_downs + c.scale_downs;
  into.migrated_continuations <- into.migrated_continuations + c.migrated_continuations;
  Array.iteri
    (fun i v -> into.steal_batch_hist.(i) <- into.steal_batch_hist.(i) + v)
    c.steal_batch_hist;
  if Array.length c.steal_victims > 0 then begin
    ensure_victims into (Array.length c.steal_victims - 1);
    Array.iteri (fun i v -> into.steal_victims.(i) <- into.steal_victims.(i) + v) c.steal_victims
  end

let sum cs =
  let acc = create () in
  Array.iter (fun c -> add ~into:acc c) cs;
  acc

let fields c =
  [
    ("pushes", c.pushes);
    ("pops", c.pops);
    ("steal_attempts", c.steal_attempts);
    ("successful_steals", c.successful_steals);
    ("stolen_tasks", c.stolen_tasks);
    ("batch_steals", c.batch_steals);
    ("steal_empties", c.steal_empties);
    ("cas_failures_pop_top", c.cas_failures_pop_top);
    ("cas_failures_pop_bottom", c.cas_failures_pop_bottom);
    ("yields", c.yields);
    ("lock_spins", c.lock_spins);
    ("deque_high_water", c.deque_high_water);
    ("max_steal_batch", c.max_steal_batch);
    ("parks", c.parks);
    ("task_exceptions", c.task_exceptions);
    ("inject_polls", c.inject_polls);
    ("inject_tasks", c.inject_tasks);
    ("inject_batches", c.inject_batches);
    ("cross_polls", c.cross_polls);
    ("cross_shard_steals", c.cross_shard_steals);
    ("cross_stolen_tasks", c.cross_stolen_tasks);
    ("gate_suspends", c.gate_suspends);
    ("gate_wait_ns", c.gate_wait_ns);
    ("directed_yields", c.directed_yields);
    ("suspensions", c.suspensions);
    ("resumes", c.resumes);
    ("suspended_peak", c.suspended_peak);
    ("lane_polls", c.lane_polls);
    ("lane_tasks", c.lane_tasks);
    ("deadline_misses", c.deadline_misses);
    ("scale_ups", c.scale_ups);
    ("scale_downs", c.scale_downs);
    ("migrated_continuations", c.migrated_continuations);
  ]

let batch_hist c = Array.copy c.steal_batch_hist

let consistent c =
  List.for_all (fun (_, v) -> v >= 0) (fields c)
  && c.successful_steals + c.steal_empties + c.cas_failures_pop_top <= c.steal_attempts
  && c.stolen_tasks >= c.successful_steals
  && c.batch_steals <= c.successful_steals

let complete c =
  consistent c
  && c.successful_steals + c.steal_empties + c.cas_failures_pop_top = c.steal_attempts

let pp ppf c =
  Fmt.pf ppf
    "steals %d/%d (empty %d, cas-lost %d) push/pop %d/%d yields %d parks %d spins %d hiwater %d%s%s%s%s%s%s%s%s%s"
    c.successful_steals c.steal_attempts c.steal_empties c.cas_failures_pop_top c.pushes c.pops
    c.yields c.parks c.lock_spins c.deque_high_water
    (if c.stolen_tasks > c.successful_steals then
       Printf.sprintf " batched %d tasks/%d batch-steals (max %d)" c.stolen_tasks c.batch_steals
         c.max_steal_batch
     else "")
    (if c.inject_tasks > 0 || c.inject_polls > 0 then
       Printf.sprintf " inject %d/%d%s" c.inject_tasks c.inject_polls
         (if c.inject_batches > 0 then Printf.sprintf " (%d batched)" c.inject_batches else "")
     else "")
    (if c.cross_polls > 0 || c.cross_stolen_tasks > 0 then
       Printf.sprintf " cross %d/%d" c.cross_stolen_tasks c.cross_polls
     else "")
    (if c.lane_polls > 0 then Printf.sprintf " lane %d/%d" c.lane_tasks c.lane_polls else "")
    (if c.deadline_misses > 0 then Printf.sprintf " deadline-misses %d" c.deadline_misses else "")
    (if c.scale_ups > 0 || c.scale_downs > 0 then
       Printf.sprintf " scale +%d/-%d (%d migrated)" c.scale_ups c.scale_downs
         c.migrated_continuations
     else "")
    (if c.suspensions > 0 || c.resumes > 0 then
       Printf.sprintf " fiber-susp %d/%d (peak %d)" c.resumes c.suspensions c.suspended_peak
     else "")
    (if c.task_exceptions > 0 then Printf.sprintf " task-exns %d" c.task_exceptions else "")
    (if c.gate_suspends > 0 then
       Printf.sprintf " gate-suspends %d (%.1fms)%s" c.gate_suspends
         (float_of_int c.gate_wait_ns /. 1e6)
         (if c.directed_yields > 0 then Printf.sprintf " directed-yields %d" c.directed_yields
          else "")
     else "")
