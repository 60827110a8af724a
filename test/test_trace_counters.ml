(* Telemetry counter consistency: the engine's per-worker Abp_trace
   counters must agree exactly with the Run_result scalar fields across
   deque models, spawn policies, and seeds; an attached sink must see the
   same numbers and a round-stamped event stream; ring bounding and
   exporters are exercised end to end. *)

module Engine = Abp_sim.Engine
module Run_result = Abp_sim.Run_result
module Adversary = Abp_kernel.Adversary
module Generators = Abp_dag.Generators
module Counters = Abp_trace.Counters
module Sink = Abp_trace.Sink
module Event = Abp_trace.Event

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let cfg ?(model = Engine.Nonblocking) ?(policy = Engine.Child_first) ?(seed = 1L) ~p () =
  {
    (Engine.default_config ~num_processes:p ~adversary:(Adversary.dedicated ~num_processes:p))
    with
    Engine.deque_model = model;
    spawn_policy = policy;
    seed;
  }

let check_counters_match_result name (r : Run_result.t) =
  let totals = Counters.sum r.Run_result.per_worker in
  Alcotest.(check int) (name ^ ": per_worker length") r.Run_result.num_processes
    (Array.length r.Run_result.per_worker);
  Alcotest.(check int) (name ^ ": steal_attempts") r.Run_result.steal_attempts
    totals.Counters.steal_attempts;
  Alcotest.(check int) (name ^ ": successful_steals") r.Run_result.successful_steals
    totals.Counters.successful_steals;
  Alcotest.(check int) (name ^ ": yield_calls") r.Run_result.yield_calls totals.Counters.yields;
  Alcotest.(check int) (name ^ ": lock_spins") r.Run_result.lock_spins totals.Counters.lock_spins;
  (* Every completed attempt is classified: success or empty victim (the
     simulator serializes methods, so no CAS failures ever). *)
  Alcotest.(check bool) (name ^ ": breakdown complete") true (Counters.complete totals);
  Alcotest.(check int) (name ^ ": no cas failures in sim") 0 totals.Counters.cas_failures_pop_top;
  (* Owner accounting: every push is eventually popped or stolen. *)
  Alcotest.(check int)
    (name ^ ": pushes = pops + steals")
    totals.Counters.pushes
    (totals.Counters.pops + totals.Counters.successful_steals);
  (* Parking and task-exception capture are Hood-runtime mechanisms; the
     simulator never touches those counters. *)
  Alcotest.(check int) (name ^ ": no parks in sim") 0 totals.Counters.parks;
  Alcotest.(check int) (name ^ ": no task exceptions in sim") 0 totals.Counters.task_exceptions

let counters_match_across_configs () =
  let dag = Generators.spawn_tree ~depth:7 ~leaf_work:3 in
  List.iter
    (fun (mname, model) ->
      List.iter
        (fun (pname, policy) ->
          List.iter
            (fun seed ->
              let name = Printf.sprintf "%s/%s/seed%Ld" mname pname seed in
              let r = Engine.run (cfg ~model ~policy ~seed ~p:4 ()) dag in
              Alcotest.(check bool) (name ^ ": completed") true r.Run_result.completed;
              check_counters_match_result name r)
            [ 1L; 42L; 1234L ])
        [ ("child", Engine.Child_first); ("parent", Engine.Parent_first) ])
    [ ("nonblocking", Engine.Nonblocking); ("locked2", Engine.Locked 2) ]

let locked_model_spins_attributed () =
  (* Under a lock-holder-preempting adversary the Locked model burns
     spins; they must land in per-worker counters. *)
  let dag = Generators.spawn_tree ~depth:6 ~leaf_work:2 in
  let p = 4 in
  let adversary =
    Adversary.preempt_lock_holders ~num_processes:p ~width:2
      ~rng:(Abp_stats.Rng.create ~seed:9L ())
  in
  let c =
    {
      (Engine.default_config ~num_processes:p ~adversary) with
      Engine.deque_model = Engine.Locked 3;
    }
  in
  let r = Engine.run c dag in
  check_counters_match_result "preempt-locks" r;
  Alcotest.(check bool) "some spins observed" true (r.Run_result.lock_spins > 0)

let sink_sees_the_same_counters () =
  let dag = Generators.spawn_tree ~depth:7 ~leaf_work:3 in
  let p = 4 in
  let sink = Sink.create ~ring_capacity:(1 lsl 14) ~workers:p () in
  let r = Engine.run ~trace:sink (cfg ~p ()) dag in
  check_counters_match_result "sink run" r;
  let totals = Sink.totals sink in
  Alcotest.(check int) "sink attempts = result attempts" r.Run_result.steal_attempts
    totals.Counters.steal_attempts;
  Alcotest.(check int) "sink successes = result successes" r.Run_result.successful_steals
    totals.Counters.successful_steals;
  (* Events: stamped with rounds in [1, rounds], sorted, and covering
     every executed node exactly once (ring is large enough here). *)
  let events = Sink.events sink in
  Alcotest.(check bool) "events collected" true (events <> []);
  Alcotest.(check int) "nothing dropped" 0 (Sink.dropped sink);
  List.iter
    (fun (e : Event.t) ->
      Alcotest.(check bool) "round in range" true
        (e.Event.time >= 1.0 && e.Event.time <= float_of_int r.Run_result.rounds))
    events;
  let sorted = List.for_all2 (fun a b -> a.Event.time <= b.Event.time)
      (List.filteri (fun i _ -> i < List.length events - 1) events)
      (List.tl events)
  in
  Alcotest.(check bool) "events sorted by round" true sorted;
  let executes =
    List.length (List.filter (fun e -> e.Event.kind = Event.Execute) events)
  in
  Alcotest.(check int) "one Execute per node" (Abp_dag.Metrics.work dag) executes;
  let steals = List.length (List.filter (fun e -> e.Event.kind = Event.Steal) events) in
  Alcotest.(check int) "one Steal event per success" r.Run_result.successful_steals steals

let ring_bounds_and_counts_drops () =
  let dag = Generators.spawn_tree ~depth:7 ~leaf_work:3 in
  let p = 4 in
  let cap = 8 in
  let sink = Sink.create ~ring_capacity:cap ~workers:p () in
  let r = Engine.run ~trace:sink (cfg ~p ()) dag in
  Alcotest.(check bool) "completed" true r.Run_result.completed;
  let retained = List.length (Sink.events sink) in
  Alcotest.(check bool) "retained bounded" true (retained <= p * cap);
  Alcotest.(check bool) "drops counted" true (Sink.dropped sink > 0);
  (* The ring keeps the most recent events: each worker's retained
     stream must end at (or after) its last counted activity. *)
  List.iter
    (fun (e : Event.t) ->
      Alcotest.(check bool) "late events" true (e.Event.time > 1.0))
    (Sink.events sink)

let sink_wrong_width_rejected () =
  let dag = Generators.chain ~n:4 in
  let sink = Sink.create ~workers:3 () in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Engine.run: trace sink must have one worker per process") (fun () ->
      ignore (Engine.run ~trace:sink (cfg ~p:2 ()) dag))

let exporters_render () =
  let dag = Generators.spawn_tree ~depth:6 ~leaf_work:2 in
  let p = 3 in
  let sink = Sink.create ~ring_capacity:1024 ~workers:p () in
  let r = Engine.run ~trace:sink (cfg ~p ()) dag in
  Alcotest.(check bool) "completed" true r.Run_result.completed;
  let json = Abp_trace.Chrome.to_string ~scale:1000.0 sink in
  Alcotest.(check bool) "has traceEvents" true
    (contains ~affix:{|"traceEvents"|} json);
  Alcotest.(check bool) "has a steal or idle event" true
    (contains ~affix:{|"name":"execute"|} json);
  Alcotest.(check bool) "balanced braces" true
    (let depth = ref 0 and ok = ref true in
     String.iter
       (fun ch ->
         if ch = '{' then incr depth
         else if ch = '}' then begin
           decr depth;
           if !depth < 0 then ok := false
         end)
       json;
     !ok && !depth = 0);
  let report = Format.asprintf "%a" Abp_trace.Report.pp sink in
  Alcotest.(check bool) "report mentions totals" true
    (contains ~affix:"totals:" report);
  Alcotest.(check bool) "report has per-worker histogram" true
    (contains ~affix:"steal attempts per worker" report)

let prop_counters_consistent_on_random_dags =
  QCheck2.Test.make ~name:"telemetry totals match run_result on random dags" ~count:20
    QCheck2.Gen.(triple (int_range 1 10_000) (int_range 30 200) (int_range 1 6))
    (fun (seed, size, p) ->
      let rng = Abp_stats.Rng.create ~seed:(Int64.of_int seed) () in
      let dag = Generators.random_sp ~rng ~size in
      let r = Engine.run (cfg ~seed:(Int64.of_int seed) ~p ()) dag in
      let totals = Counters.sum r.Run_result.per_worker in
      r.Run_result.completed
      && totals.Counters.steal_attempts = r.Run_result.steal_attempts
      && totals.Counters.successful_steals = r.Run_result.successful_steals
      && totals.Counters.yields = r.Run_result.yield_calls
      && totals.Counters.lock_spins = r.Run_result.lock_spins
      && Counters.complete totals)

let fields_cover_every_counter () =
  let c = Counters.create () in
  let names = List.map fst (Counters.fields c) in
  List.iter
    (fun want ->
      Alcotest.(check bool) ("fields include " ^ want) true (List.mem want names))
    [
      "pushes";
      "pops";
      "steal_attempts";
      "successful_steals";
      "stolen_tasks";
      "batch_steals";
      "steal_empties";
      "cas_failures_pop_top";
      "cas_failures_pop_bottom";
      "yields";
      "lock_spins";
      "deque_high_water";
      "max_steal_batch";
      "parks";
      "task_exceptions";
      "inject_polls";
      "inject_tasks";
      "inject_batches";
      "cross_polls";
      "cross_shard_steals";
      "cross_stolen_tasks";
      "gate_suspends";
      "gate_wait_ns";
      "directed_yields";
      "suspensions";
      "resumes";
      "suspended_peak";
      "lane_polls";
      "lane_tasks";
      "deadline_misses";
      "scale_ups";
      "scale_downs";
      "migrated_continuations";
    ];
  Alcotest.(check int) "exactly the 33 fields" 33 (List.length names)

let victim_vectors_grow_sum_and_export () =
  (* The per-victim steal vector is a growable side table, deliberately
     OUTSIDE [fields]: it grows on demand, sums element-wise under
     [add] (ragged lengths included), and exports as a matrix row. *)
  (* The vector grows by doubling, so its physical length is an
     implementation detail: compare with trailing zeros trimmed. *)
  let trimmed c =
    let v = Counters.victim_counts c in
    let n = ref (Array.length v) in
    while !n > 0 && v.(!n - 1) = 0 do
      decr n
    done;
    Array.sub v 0 !n
  in
  let a = Counters.create () in
  Alcotest.(check (array int)) "fresh vector empty" [||] (trimmed a);
  Counters.note_victim a 2;
  Counters.note_victim a 2;
  Counters.note_victim a 0;
  Counters.note_victim a (-1);
  (* ignored *)
  Alcotest.(check (array int)) "grown to victim index" [| 1; 0; 2 |] (trimmed a);
  let b = Counters.create () in
  Counters.note_victim b 5;
  Counters.add ~into:a b;
  Alcotest.(check (array int)) "ragged add sums element-wise" [| 1; 0; 2; 0; 0; 1 |] (trimmed a);
  let c = Counters.copy a in
  Counters.note_victim a 0;
  Alcotest.(check (array int)) "copy is independent" [| 1; 0; 2; 0; 0; 1 |] (trimmed c);
  Counters.reset a;
  Alcotest.(check (array int)) "reset clears the vector" [||] (trimmed a);
  (* End-to-end: a live pool records per-victim counts, and both
     exporters surface the matrix. *)
  let sink = Sink.create ~workers:4 () in
  let pool = Abp_hood.Pool.create ~processes:4 ~trace:sink () in
  Abp_hood.Pool.run pool (fun () ->
      let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in
      let futs = List.init 64 (fun _ -> Abp_hood.Future.spawn (fun () -> fib 18)) in
      List.iter (fun f -> ignore (Abp_hood.Future.force f)) futs);
  Abp_hood.Pool.shutdown pool;
  let per_worker = Sink.per_worker sink in
  let total_steals =
    Array.fold_left (fun acc c -> acc + c.Counters.successful_steals) 0 per_worker
  in
  let matrix_total =
    Array.fold_left
      (fun acc c -> Array.fold_left ( + ) acc (Counters.victim_counts c))
      0 per_worker
  in
  Alcotest.(check int) "matrix total = intra-pool successful steals" total_steals matrix_total;
  Array.iteri
    (fun i c ->
      let row = Counters.victim_counts c in
      if i < Array.length row then
        Alcotest.(check int) "no self-steals on the diagonal" 0 row.(i))
    per_worker;
  if total_steals > 0 then begin
    let report = Format.asprintf "%a" Abp_trace.Report.pp sink in
    Alcotest.(check bool) "report prints the steal matrix" true
      (contains ~affix:"steal matrix" report);
    let json = Abp_trace.Chrome.to_string sink in
    Alcotest.(check bool) "chrome export carries steal_victims rows" true
      (contains ~affix:{|"name":"steal_victims"|} json)
  end

let tests =
  [
    Alcotest.test_case "counters match run_result (models x policies x seeds)" `Quick
      counters_match_across_configs;
    Alcotest.test_case "fields cover every counter" `Quick fields_cover_every_counter;
    Alcotest.test_case "victim vectors: grow, sum, matrix export" `Quick
      victim_vectors_grow_sum_and_export;
    Alcotest.test_case "locked model: spins attributed per worker" `Quick
      locked_model_spins_attributed;
    Alcotest.test_case "sink sees the same counters + round-stamped events" `Quick
      sink_sees_the_same_counters;
    Alcotest.test_case "event ring bounds retention and counts drops" `Quick
      ring_bounds_and_counts_drops;
    Alcotest.test_case "sink width mismatch rejected" `Quick sink_wrong_width_rejected;
    Alcotest.test_case "chrome + report exporters render" `Quick exporters_render;
    QCheck_alcotest.to_alcotest prop_counters_consistent_on_random_dags;
  ]
