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
    (Counters.get totals Counters.steal_attempts);
  Alcotest.(check int) (name ^ ": successful_steals") r.Run_result.successful_steals
    (Counters.get totals Counters.successful_steals);
  Alcotest.(check int) (name ^ ": yield_calls") r.Run_result.yield_calls
    (Counters.get totals Counters.yields);
  Alcotest.(check int) (name ^ ": lock_spins") r.Run_result.lock_spins
    (Counters.get totals Counters.lock_spins);
  (* Every completed attempt is classified: success or empty victim (the
     simulator serializes methods, so no CAS failures ever). *)
  Alcotest.(check bool) (name ^ ": breakdown complete") true (Counters.complete totals);
  Alcotest.(check int) (name ^ ": no cas failures in sim") 0
    (Counters.get totals Counters.cas_failures_pop_top);
  (* Owner accounting: every push is eventually popped or stolen. *)
  Alcotest.(check int)
    (name ^ ": pushes = pops + steals")
    (Counters.get totals Counters.pushes)
    (Counters.get totals Counters.pops + Counters.get totals Counters.successful_steals);
  (* Parking and task-exception capture are Hood-runtime mechanisms; the
     simulator never touches those counters. *)
  Alcotest.(check int) (name ^ ": no parks in sim") 0 (Counters.get totals Counters.parks);
  Alcotest.(check int) (name ^ ": no task exceptions in sim") 0
    (Counters.get totals Counters.task_exceptions)

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
    (Counters.get totals Counters.steal_attempts);
  Alcotest.(check int) "sink successes = result successes" r.Run_result.successful_steals
    (Counters.get totals Counters.successful_steals);
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

(* Runtime events are stamped with the monotonic clock (the one Serve
   uses), in seconds: every event of a Hood run falls
   between two [Clock.now] readings taken around it. *)
let hood_events_use_the_monotonic_clock () =
  let now_s () = Abp_trace.Clock.to_s (Abp_trace.Clock.now ()) in
  let p = 2 in
  let sink = Sink.create ~ring_capacity:(1 lsl 12) ~workers:p () in
  let before = now_s () in
  let pool = Abp_hood.Pool.create ~processes:p ~trace:sink () in
  Abp_hood.Pool.run pool (fun () ->
      let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) in
      let futs = List.init 16 (fun _ -> Abp_hood.Future.spawn (fun () -> fib 12)) in
      List.iter (fun f -> ignore (Abp_hood.Future.force f)) futs);
  Abp_hood.Pool.shutdown pool;
  let after = now_s () in
  let events = Sink.events sink in
  Alcotest.(check bool) "events collected" true (events <> []);
  List.iter
    (fun (e : Event.t) ->
      if e.Event.time < before || e.Event.time > after then
        Alcotest.failf "event %s at %.6f outside [%.6f, %.6f]" (Event.kind_name e.Event.kind)
          e.Event.time before after)
    events

(* [Clock.sleep_until] is one absolute clock_nanosleep: it may return
   late (the OS decides when the thread runs again) but never before
   its deadline, whatever the delay. *)
let sleep_until_never_early () =
  let module Clock = Abp_trace.Clock in
  for i = 0 to 199 do
    let delay_ns = 1000 * (20 + (i * 137 mod 281)) in
    let due = Clock.now () + delay_ns in
    Clock.sleep_until due;
    let woke = Clock.now () in
    if woke < due then Alcotest.failf "sleep %d (%d ns) woke %d ns early" i delay_ns (due - woke)
  done

(* A deadline already passed returns without sleeping.  The bound is
   loose (a preempted test thread can lose a timeslice); a past due time
   mistaken for a far-future one would block for seconds or forever. *)
let sleep_until_past_returns () =
  let module Clock = Abp_trace.Clock in
  let t0 = Clock.now () in
  List.iter Clock.sleep_until [ t0 - 1_000_000_000; t0; 0; min_int ];
  let took = Clock.now () - t0 in
  Alcotest.(check bool) (Printf.sprintf "returned at once (%d ns)" took) true (took < 50_000_000)

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
      && Counters.get totals Counters.steal_attempts = r.Run_result.steal_attempts
      && Counters.get totals Counters.successful_steals = r.Run_result.successful_steals
      && Counters.get totals Counters.yields = r.Run_result.yield_calls
      && Counters.get totals Counters.lock_spins = r.Run_result.lock_spins
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
      "steal_empties";
      "cas_failures_pop_top";
      "cas_failures_pop_bottom";
      "yields";
      "lock_spins";
      "deque_high_water";
      "parks";
      "task_exceptions";
      "inject_polls";
      "inject_tasks";
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
    ];
  Alcotest.(check int) "exactly the 27 fields" 27 (List.length names)

(* How each counter combines is part of its meaning: peaks (high-water
   marks) aggregate by max, everything else by sum.  Pinned by name so a
   counter cannot silently change kind. *)
let peak_counters = [ "deque_high_water"; "suspended_peak" ]

(* [c] is fresh, so adding sets. *)
let set_every_field c v =
  Counters.add_n c Counters.pushes (v 0);
  Counters.add_n c Counters.pops (v 1);
  Counters.add_n c Counters.steal_attempts (v 2);
  Counters.add_n c Counters.successful_steals (v 3);
  Counters.add_n c Counters.stolen_tasks (v 4);
  Counters.add_n c Counters.steal_empties (v 5);
  Counters.add_n c Counters.cas_failures_pop_top (v 6);
  Counters.add_n c Counters.cas_failures_pop_bottom (v 7);
  Counters.add_n c Counters.yields (v 8);
  Counters.add_n c Counters.lock_spins (v 9);
  Counters.add_n c Counters.deque_high_water (v 10);
  Counters.add_n c Counters.parks (v 11);
  Counters.add_n c Counters.task_exceptions (v 12);
  Counters.add_n c Counters.inject_polls (v 13);
  Counters.add_n c Counters.inject_tasks (v 14);
  Counters.add_n c Counters.cross_polls (v 15);
  Counters.add_n c Counters.cross_shard_steals (v 16);
  Counters.add_n c Counters.cross_stolen_tasks (v 17);
  Counters.add_n c Counters.gate_suspends (v 18);
  Counters.add_n c Counters.gate_wait_ns (v 19);
  Counters.add_n c Counters.directed_yields (v 20);
  Counters.add_n c Counters.suspensions (v 21);
  Counters.add_n c Counters.resumes (v 22);
  Counters.add_n c Counters.suspended_peak (v 23);
  Counters.add_n c Counters.lane_polls (v 24);
  Counters.add_n c Counters.lane_tasks (v 25);
  Counters.add_n c Counters.deadline_misses (v 26)

let aggregation_kinds_pinned () =
  let value_a i = 100 + i and value_b i = 200 - (3 * i) in
  let a = Counters.create () and b = Counters.create () in
  set_every_field a value_a;
  set_every_field b value_b;
  Counters.note_victim a 1;
  Counters.note_victim b 3;
  let expected =
    List.mapi
      (fun i (name, _) ->
        (name, if List.mem name peak_counters then max (value_a i) (value_b i)
               else value_a i + value_b i))
      (Counters.fields a)
  in
  let check_combined label c =
    List.iter2
      (fun (name, want) (name', got) ->
        Alcotest.(check string) (label ^ ": field order") name name';
        Alcotest.(check int) (label ^ ": " ^ name) want got)
      expected (Counters.fields c)
  in
  check_combined "sum" (Counters.sum [| a; b |]);
  Alcotest.(check int) "two peaks, twenty-five sums" 25
    (List.length (List.filter (fun (n, _) -> not (List.mem n peak_counters)) expected));
  let a' = Counters.copy a in
  Counters.add ~into:a b;
  check_combined "add" a;
  Alcotest.(check int) "add: victims" 2
    (Array.fold_left ( + ) 0 (Counters.victim_counts a));
  (* The copy taken before [add] kept a's own values. *)
  List.iteri
    (fun i (name, v) -> Alcotest.(check int) ("copy independent: " ^ name) (value_a i) v)
    (Counters.fields a');
  Alcotest.(check int) "copy independent: victims" 1
    (Array.fold_left ( + ) 0 (Counters.victim_counts a'));
  Counters.reset a;
  List.iter (fun (name, v) -> Alcotest.(check int) ("reset: " ^ name) 0 v) (Counters.fields a);
  Alcotest.(check bool) "reset: victims" true
    (Array.for_all (fun v -> v = 0) (Counters.victim_counts a))

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
    Array.fold_left (fun acc c -> acc + Counters.get c Counters.successful_steals) 0 per_worker
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

(* [consistent]/[complete] on hand-built records: a steal moves exactly
   one task, so any gap between [stolen_tasks] and [successful_steals]
   is a bookkeeping fault, as is a classification exceeding the
   attempts or a negative counter. *)
let consistency_predicates () =
  let record ~attempts ~steals ~tasks ~empties ~cas =
    let c = Counters.create () in
    Counters.add_n c Counters.steal_attempts attempts;
    Counters.add_n c Counters.successful_steals steals;
    Counters.add_n c Counters.stolen_tasks tasks;
    Counters.add_n c Counters.steal_empties empties;
    Counters.add_n c Counters.cas_failures_pop_top cas;
    c
  in
  let check name ~consistent ~complete c =
    Alcotest.(check bool) (name ^ ": consistent") consistent (Counters.consistent c);
    Alcotest.(check bool) (name ^ ": complete") complete (Counters.complete c)
  in
  check "all zero" ~consistent:true ~complete:true (Counters.create ());
  check "fully classified" ~consistent:true ~complete:true
    (record ~attempts:6 ~steals:3 ~tasks:3 ~empties:2 ~cas:1);
  check "an attempt left unclassified" ~consistent:true ~complete:false
    (record ~attempts:7 ~steals:3 ~tasks:3 ~empties:2 ~cas:1);
  check "more tasks than steals" ~consistent:false ~complete:false
    (record ~attempts:6 ~steals:3 ~tasks:4 ~empties:2 ~cas:1);
  check "fewer tasks than steals" ~consistent:false ~complete:false
    (record ~attempts:6 ~steals:3 ~tasks:2 ~empties:2 ~cas:1);
  check "outcomes exceed attempts" ~consistent:false ~complete:false
    (record ~attempts:5 ~steals:3 ~tasks:3 ~empties:2 ~cas:1);
  let negative = Counters.create () in
  Counters.add_n negative Counters.pushes (-1);
  check "a negative counter" ~consistent:false ~complete:false negative

let tests =
  [
    Alcotest.test_case "counters match run_result (models x policies x seeds)" `Quick
      counters_match_across_configs;
    Alcotest.test_case "fields cover every counter" `Quick fields_cover_every_counter;
    Alcotest.test_case "consistent/complete predicates" `Quick consistency_predicates;
    Alcotest.test_case "aggregation kinds: peaks max, the rest sum; reset; copy" `Quick
      aggregation_kinds_pinned;
    Alcotest.test_case "victim vectors: grow, sum, matrix export" `Quick
      victim_vectors_grow_sum_and_export;
    Alcotest.test_case "locked model: spins attributed per worker" `Quick
      locked_model_spins_attributed;
    Alcotest.test_case "sink sees the same counters + round-stamped events" `Quick
      sink_sees_the_same_counters;
    Alcotest.test_case "event ring bounds retention and counts drops" `Quick
      ring_bounds_and_counts_drops;
    Alcotest.test_case "sink width mismatch rejected" `Quick sink_wrong_width_rejected;
    Alcotest.test_case "Clock.sleep_until never returns early" `Quick sleep_until_never_early;
    Alcotest.test_case "Clock.sleep_until on a past deadline returns at once" `Quick
      sleep_until_past_returns;
    Alcotest.test_case "hood events stamped with the monotonic clock" `Quick
      hood_events_use_the_monotonic_clock;
    Alcotest.test_case "chrome + report exporters render" `Quick exporters_render;
    QCheck_alcotest.to_alcotest prop_counters_consistent_on_random_dags;
  ]
