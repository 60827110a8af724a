(* Batched work transfer at the runtime level: steal-half pools keep
   the conservation law (pushes = pops + stolen_tasks at quiescence),
   lazy-splitting Par skeletons compute the same answers as the eager
   ones, a producer burst larger than the batch size cannot strand
   parked workers (the lost-wakeup regression for the batch drain
   path), the Abp deque's single-steal fallback is observable end to
   end, Serve's batched injector drain is counted, and the pool's work
   sources are polled in list order with every one consulted before a
   worker parks. *)

module Pool = Abp_hood.Pool
module Par = Abp_hood.Par
module Serve = Abp_serve.Serve
module Shard = Abp_serve.Shard
module Injector = Abp_serve.Injector
module Counters = Abp_trace.Counters

let totals pool = Counters.sum (Pool.counters pool)

(* Spin (politely) until [pred] holds; false on timeout.  Generous
   timeout: the CI box may have one CPU. *)
let wait_until ?(timeout = 30.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    pred ()
    ||
    if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()

let batch_size_normalized () =
  List.iter
    (fun (batch, want) ->
      let pool = Pool.create ~processes:1 ~batch () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          Alcotest.(check int) (Printf.sprintf "batch %d normalizes" batch) want
            (Pool.batch_size pool)))
    [ (0, 1); (1, 1); (4, 4) ];
  Alcotest.check_raises "negative batch rejected"
    (Invalid_argument "Pool.create: batch >= 0 required") (fun () ->
      ignore (Pool.create ~processes:1 ~batch:(-1) ()))

(* Conservation with batching on: every spawned task is executed exactly
   once, so at quiescence pushes (including surplus re-pushes) equal
   pops plus stolen tasks, and the steal-attempt breakdown is complete. *)
let batched_pool_conservation () =
  let pool = Pool.create ~processes:4 ~deque_impl:Pool.Circular ~batch:4 () in
  let result =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.run pool (fun () -> Par.fib 24))
  in
  Alcotest.(check int) "fib correct under batching" 46368 result;
  let t = totals pool in
  Alcotest.(check int)
    "pushes = pops + stolen_tasks"
    (Counters.get t Counters.pushes)
    (Counters.get t Counters.pops + Counters.get t Counters.stolen_tasks);
  Alcotest.(check bool) "breakdown complete" true (Counters.complete t);
  Alcotest.(check bool) "stolen_tasks >= successful_steals" true
    (Counters.get t Counters.stolen_tasks >= Counters.get t Counters.successful_steals);
  Alcotest.(check bool) "batch_steals <= successful_steals" true
    (Counters.get t Counters.batch_steals <= Counters.get t Counters.successful_steals)

(* The documented Abp degradation: with [batch] set on an Abp pool every
   steal still moves exactly one task, so stolen_tasks equals
   successful_steals and no batch is ever recorded. *)
let abp_batch_degrades_to_single_steals () =
  let pool = Pool.create ~processes:4 ~deque_impl:Pool.Abp ~batch:8 () in
  let result =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.run pool (fun () -> Par.fib 24))
  in
  Alcotest.(check int) "fib correct" 46368 result;
  let t = totals pool in
  Alcotest.(check int) "one task per steal" (Counters.get t Counters.successful_steals)
    (Counters.get t Counters.stolen_tasks);
  Alcotest.(check int) "no batched steals" 0 (Counters.get t Counters.batch_steals);
  Alcotest.(check int)
    "pushes = pops + stolen_tasks"
    (Counters.get t Counters.pushes)
    (Counters.get t Counters.pops + Counters.get t Counters.stolen_tasks)

(* Lazy splitting must compute exactly what the eager policies compute. *)
let lazy_parallel_for_correct () =
  let pool = Pool.create ~processes:4 ~deque_impl:Pool.Circular () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.run pool (fun () ->
          let n = 10_000 in
          let lazy_out = Array.make n 0 and eager_out = Array.make n 0 in
          Par.parallel_for ~lo:0 ~hi:n (fun i -> lazy_out.(i) <- (i * 3) + 1);
          Par.parallel_for ~grain:64 ~lo:0 ~hi:n (fun i -> eager_out.(i) <- (i * 3) + 1);
          Alcotest.(check bool) "lazy = eager element-wise" true (lazy_out = eager_out);
          let lazy_sum =
            Par.parallel_reduce ~lo:0 ~hi:n ~init:0 ~combine:( + ) (fun i -> i land 15)
          in
          let eager_sum =
            Par.parallel_reduce ~grain:64 ~lo:0 ~hi:n ~init:0 ~combine:( + ) (fun i -> i land 15)
          in
          Alcotest.(check int) "lazy reduce = eager reduce" eager_sum lazy_sum;
          let mapped = Par.parallel_map_array (fun x -> x * x) (Array.init 1000 Fun.id) in
          Alcotest.(check bool) "lazy map_array correct" true
            (mapped = Array.init 1000 (fun i -> i * i));
          (* Empty and single-element ranges. *)
          Par.parallel_for ~lo:5 ~hi:5 (fun _ -> Alcotest.fail "empty range ran");
          let one = ref 0 in
          Par.parallel_for ~lo:7 ~hi:8 (fun i -> one := i);
          Alcotest.(check int) "singleton range" 7 !one))

(* A pool source over an injector; its takes count in [inject_tasks]. *)
let injector_source inj =
  {
    Pool.take = (fun n -> Injector.try_pop_n inj n);
    pending = (fun () -> not (Injector.is_empty inj));
    note = (fun c got -> Counters.add_n c Counters.inject_tasks got);
    event = None;
  }

(* Lost-wakeup regression for the batch paths: bursts of external tasks
   larger than the batch size, each followed by a single wake, against
   aggressively parking workers (threshold 0).  If a source take's
   surplus re-push failed to wake parked thieves, or parking ignored a
   source's [pending], a burst could strand with every worker parked.
   Run with the burst in the only source, and in the second of two
   sources (the first stays empty), so the parking check must look past
   the first entry of the list. *)
let burst_larger_than_batch_cannot_strand () =
  List.iter
    (fun (n_sources, into) ->
      let injs = List.init n_sources (fun _ -> Injector.create ~capacity:1024 ()) in
      let inj = List.nth injs into in
      let pool =
        Pool.create ~processes:3 ~deque_impl:Pool.Circular ~batch:2 ~park_threshold:0
          ~sources:(List.map injector_source injs) ~spawn_all:true ()
      in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let executed = Atomic.make 0 in
          let rounds = 20 and burst = 16 in
          for round = 1 to rounds do
            (* Let the workers go idle (parking is racy; best effort). *)
            ignore (wait_until ~timeout:0.05 (fun () -> Pool.parked_workers pool > 0));
            for _ = 1 to burst do
              Alcotest.(check bool) "burst fits inbox" true
                (Injector.try_push inj (fun () -> Atomic.incr executed))
            done;
            (* One wake for the whole burst: draining + surplus re-push
               must propagate it to the other workers. *)
            Pool.wake pool;
            Alcotest.(check bool)
              (Printf.sprintf "source %d of %d, round %d: all %d tasks executed" (into + 1)
                 n_sources round (round * burst))
              true
              (wait_until (fun () -> Atomic.get executed = round * burst))
          done;
          let t = totals pool in
          Alcotest.(check int) "every injected task acquired" (rounds * burst)
            (Counters.get t Counters.inject_tasks)))
    [ (1, 0); (2, 1) ]

(* The race the parking check closes, made deterministic: the last
   source's task arrives just after its take came up empty, and no wake
   follows — a producer's push landing between the worker's poll and
   its park.  The lone worker must see it through [pending] instead of
   parking for good. *)
let late_arrival_seen_by_parking_check () =
  let armed = Atomic.make false and queued = Atomic.make false and ran = Atomic.make 0 in
  let late =
    {
      Pool.take =
        (fun _ ->
          if Atomic.exchange queued false then [ (fun () -> Atomic.incr ran) ]
          else begin
            if Atomic.exchange armed false then Atomic.set queued true;
            []
          end);
      pending = (fun () -> Atomic.get queued);
      note = (fun _ _ -> ());
      event = None;
    }
  in
  let pool =
    Pool.create ~processes:1 ~park_threshold:0
      ~sources:[ injector_source (Injector.create ()); late ]
      ~spawn_all:true ()
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for round = 1 to 5 do
        Alcotest.(check bool) "worker parked" true
          (wait_until (fun () -> Pool.parked_workers pool = 1));
        Atomic.set armed true;
        Pool.wake pool;
        Alcotest.(check bool)
          (Printf.sprintf "round %d: late task ran" round)
          true
          (wait_until ~timeout:5.0 (fun () -> Atomic.get ran = round))
      done)

(* The poll order is the list order: one worker, held busy by a blocker
   while both sources fill, must then run every task of the first
   source before any of the second. *)
let sources_polled_in_list_order () =
  let first = Injector.create ~capacity:64 () and second = Injector.create ~capacity:64 () in
  let pool =
    Pool.create ~processes:1
      ~sources:[ injector_source first; injector_source second ]
      ~spawn_all:true ()
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let release = Atomic.make false and started = Atomic.make false in
      let log = ref [] and ran = Atomic.make 0 in
      let record tag () =
        log := tag :: !log;
        Atomic.incr ran
      in
      assert (
        Injector.try_push second (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done));
      Pool.wake pool;
      Alcotest.(check bool) "blocker running" true (wait_until (fun () -> Atomic.get started));
      for i = 1 to 8 do
        assert (Injector.try_push second (record (Printf.sprintf "second %d" i)));
        assert (Injector.try_push first (record (Printf.sprintf "first %d" i)))
      done;
      Atomic.set release true;
      Alcotest.(check bool) "all ran" true (wait_until (fun () -> Atomic.get ran = 16));
      Alcotest.(check (list string))
        "first source drained before the second"
        (List.init 8 (fun i -> Printf.sprintf "first %d" (i + 1))
        @ List.init 8 (fun i -> Printf.sprintf "second %d" (i + 1)))
        (List.rev !log))

(* Serve with batching: all workers blocked, then a 10-task burst, then
   release — the first inbox poll after release finds the full burst and
   must drain more than one task ([inject_batches > 0]). *)
let serve_batched_drain_counted () =
  let s = Shard.create ~processes:2 ~batch:4 ~inbox_capacity:512 ~shards:1 () in
  let gate = Atomic.make false and started = Atomic.make 0 in
  let blocker () =
    Atomic.incr started;
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done
  in
  let _b1 = Shard.submit s blocker and _b2 = Shard.submit s blocker in
  Alcotest.(check bool) "both workers blocked" true
    (wait_until (fun () -> Atomic.get started = 2));
  (* Both workers spin on the gate: the burst sits untouched in the
     inbox until release. *)
  let burst = List.init 10 (fun i -> Shard.submit s (fun () -> i)) in
  Alcotest.(check int) "burst queued" 10 (Shard.inbox_depths s).(0);
  Atomic.set gate true;
  let st = Shard.drain s in
  Alcotest.(check int) "all completed" 12 st.Serve.completed;
  let t = Counters.sum (Pool.counters (Serve.pool (Shard.serve s 0))) in
  Shard.shutdown s;
  Alcotest.(check int) "all 12 acquired from inbox" 12 (Counters.get t Counters.inject_tasks);
  Alcotest.(check bool)
    (Printf.sprintf "batched drain happened (inject_batches = %d)"
       (Counters.get t Counters.inject_batches))
    true
    (Counters.get t Counters.inject_batches > 0);
  List.iter
    (fun tk ->
      match Serve.poll tk with
      | Some (Serve.Returned _) -> ()
      | _ -> Alcotest.fail "burst task did not return")
    burst

let tests =
  [
    Alcotest.test_case "batch size normalized and validated" `Quick batch_size_normalized;
    Alcotest.test_case "conservation under batched stealing" `Quick batched_pool_conservation;
    Alcotest.test_case "abp pool: batch degrades to single steals" `Quick
      abp_batch_degrades_to_single_steals;
    Alcotest.test_case "lazy splitting computes eager answers" `Quick lazy_parallel_for_correct;
    Alcotest.test_case "burst > batch cannot strand parked workers" `Quick
      burst_larger_than_batch_cannot_strand;
    Alcotest.test_case "serve: batched inbox drain counted" `Quick serve_batched_drain_counted;
    Alcotest.test_case "sources polled in list order" `Quick sources_polled_in_list_order;
    Alcotest.test_case "parking sees a late source task" `Quick
      late_arrival_seen_by_parking_check;
  ]
