(* Backoff and parking semantics of the Hood pool (the stage-3 extension
   of the paper's Figure 3 yield): idle thieves park once they have
   been idle for [park_after] seconds and not before, a [push_task]
   wakes them with bounded latency, no task is lost across a park/unpark race
   (conservation), the [~yield_kind:No_yield] ablation never
   yields or parks, and a task that raises in a worker loop is recorded
   in [Counters.task_exceptions] and re-raised at the [run]/[shutdown]
   boundary instead of killing its domain.  The pool's extra work
   sources are polled in list order, and every one is consulted before
   a worker parks. *)

module Pool = Abp_hood.Pool
module Worker = Abp_hood.Worker
module Future = Abp_hood.Future
module Par = Abp_hood.Par
module Counters = Abp_trace.Counters
module Injector = Abp_serve.Injector

exception Boom

let totals pool = Counters.sum (Pool.counters pool)

let idle_thieves_park () =
  (* park_after 0: a thief parks on its first empty-handed trip,
     so with no work both spawned workers must end up on the condition
     variable. *)
  let pool = Pool.create ~processes:3 ~park_after:0. () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "both thieves parked" true
        (Test_util.wait_until (fun () -> Pool.parked_workers pool = 2)));
  (* shutdown returned, so the broadcast woke them; counters are now
     quiesced. *)
  Alcotest.(check bool) "parks counted" true (Counters.get (totals pool) Counters.parks >= 2);
  Alcotest.(check int) "nobody left parked" 0 (Pool.parked_workers pool)

let push_wakes_parked_thief () =
  let pool = Pool.create ~processes:2 ~park_after:0. () in
  let latency =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.run pool (fun () ->
            let w = Worker.current () in
            Alcotest.(check bool) "thief parked before push" true
              (Test_util.wait_until (fun () -> Pool.parked_workers pool = 1));
            let executed = Atomic.make false in
            let t0 = Unix.gettimeofday () in
            Worker.push_task w (fun () -> Atomic.set executed true);
            (* Worker 0 only waits — it never pops its own deque here —
               so the task can only run if the push woke the thief. *)
            Alcotest.(check bool) "parked thief executed the task" true
              (Test_util.wait_until (fun () -> Atomic.get executed));
            Unix.gettimeofday () -. t0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "wake-on-push latency %.3fs within bound" latency)
    true (latency < 10.0);
  let t = totals pool in
  Alcotest.(check bool) "the thief parked at least once" true (Counters.get t Counters.parks >= 1);
  Alcotest.(check int) "the pushed task was stolen, not popped" 1
    (Counters.get t Counters.successful_steals)

let conservation_across_park_unpark () =
  (* Aggressive parking (park_after 0) while real work flows through:
     thieves park and get woken many times, and still every pushed task
     is executed exactly once — pushes = pops + steals at quiescence. *)
  let pool = Pool.create ~processes:4 ~park_after:0. () in
  let n = 50_000 in
  let got =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        ignore (Test_util.wait_until (fun () -> Pool.parked_workers pool >= 1));
        Pool.run pool (fun () ->
            Par.parallel_reduce ~grain:16 ~lo:0 ~hi:n ~init:0 ~combine:( + ) (fun i ->
                i land 7)))
  in
  let want = ref 0 in
  for i = 0 to n - 1 do
    want := !want + (i land 7)
  done;
  Alcotest.(check int) "reduce value" !want got;
  let t = totals pool in
  Alcotest.(check bool) "thieves actually parked" true (Counters.get t Counters.parks >= 1);
  Alcotest.(check int) "pushes = pops + steals at quiescence" (Counters.get t Counters.pushes)
    (Counters.get t Counters.pops + Counters.get t Counters.successful_steals);
  Alcotest.(check bool) "steal breakdown complete" true (Counters.complete t)

let ablation_never_parks_or_yields () =
  let pool = Pool.create ~processes:3 ~yield_kind:Pool.No_yield () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let got = Pool.run pool (fun () -> Par.fib 18) in
      Alcotest.(check int) "fib value" 2584 got;
      Alcotest.(check int) "no thief parked mid-run" 0 (Pool.parked_workers pool));
  let t = totals pool in
  Alcotest.(check int) "no yields in ablation" 0 (Counters.get t Counters.yields);
  Alcotest.(check int) "no parks in ablation" 0 (Counters.get t Counters.parks)

let invalid_park_after_rejected () =
  List.iter
    (fun park_after ->
      Alcotest.check_raises
        (Printf.sprintf "park_after %g rejected" park_after)
        (Invalid_argument "Pool.create: park_after >= 0 required")
        (fun () -> ignore (Pool.create ~processes:1 ~park_after ())))
    [ -1e-3; Float.nan ]

(* The idle window, one way: with the default [park_after] an idle pool
   still parks every thief, and so does an idle shard group, whose
   workers are all spawned domains.  A change that turned the window
   into spinning forever would burn the CPU of every idle pool. *)
let default_window_parks_idle_workers () =
  let pool = Pool.create ~processes:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "both thieves of an idle pool parked" true
        (Test_util.wait_until (fun () -> Pool.parked_workers pool = 2)));
  let module Shard = Abp_serve.Shard in
  let s = Shard.create ~processes:2 ~shards:2 () in
  Fun.protect
    ~finally:(fun () -> Shard.shutdown s)
    (fun () ->
      let parked i = Pool.parked_workers (Shard.Serve.pool (Shard.serve s i)) in
      Alcotest.(check bool) "every worker of an idle shard group parked" true
        (Test_util.wait_until (fun () -> parked 0 = 2 && parked 1 = 2)))

(* The other way: a thief idle for less than its window does not park.
   With a 1 s window, a task pushed 50 ms after the pool started (its
   thief idle throughout) is stolen by a thief that never parked. *)
let thief_inside_window_stays_awake () =
  let pool = Pool.create ~processes:2 ~park_after:1.0 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.run pool (fun () ->
          let w = Worker.current () in
          Unix.sleepf 0.05;
          let executed = Atomic.make false in
          Worker.push_task w (fun () -> Atomic.set executed true);
          (* As in [push_wakes_parked_thief], worker 0 never pops its
             own deque here, so only the thief can run the task. *)
          Alcotest.(check bool) "the awake thief executed the task" true
            (Test_util.wait_until (fun () -> Atomic.get executed))));
  let t = totals pool in
  Alcotest.(check int) "no thief parked" 0 (Counters.get t Counters.parks);
  Alcotest.(check int) "the pushed task was stolen" 1 (Counters.get t Counters.successful_steals)

let task_exception_reraised_at_run () =
  let pool = Pool.create ~processes:2 ~park_after:0. () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.check_raises "run re-raises the task's exception" Boom (fun () ->
          Pool.run pool (fun () ->
              let w = Worker.current () in
              Worker.push_task w (fun () -> raise Boom);
              (* Wait for the worker loop to catch and record it, so the
                 re-raise deterministically happens at this run's exit. *)
              ignore
                (Test_util.wait_until (fun () -> Counters.get (totals pool) Counters.task_exceptions = 1))));
      Alcotest.(check int) "exception recorded in counters" 1
        (Counters.get (totals pool) Counters.task_exceptions);
      (* The worker domain survived: the pool still computes. *)
      let got = Pool.run pool (fun () -> Par.fib 15) in
      Alcotest.(check int) "pool still works after task exception" 610 got)

let task_exception_reraised_at_shutdown () =
  let pool = Pool.create ~processes:2 ~park_after:0. () in
  let gate = Atomic.make false in
  Pool.run pool (fun () ->
      let w = Worker.current () in
      (* The task blocks on [gate], so it cannot have raised before this
         run returns; the exception then surfaces at shutdown. *)
      Worker.push_task w (fun () ->
          while not (Atomic.get gate) do
            Domain.cpu_relax ()
          done;
          raise Boom));
  Atomic.set gate true;
  Alcotest.(check bool) "exception recorded after run returned" true
    (Test_util.wait_until (fun () -> Counters.get (totals pool) Counters.task_exceptions = 1));
  Alcotest.check_raises "shutdown re-raises the pending exception" Boom (fun () ->
      Pool.shutdown pool);
  (* Idempotent shutdown does not raise twice. *)
  Pool.shutdown pool

(* Cross-pool lost-wakeup regression: one shard's only worker is blocked
   mid-task and the other shard's only worker is parked (park_after 0).
   A request keyed to the busy shard then lands in its inbox — nobody in
   that shard can run it.  The submit path must wake the sibling pool's
   parked thief on the empty->nonempty flip, and that thief must
   cross-steal the stranded job from the busy shard's inbox and run it
   while the busy shard is still blocked.  Without the sibling wake, the
   poll below times out (the classic lost wakeup).  The blocker itself
   may be cross-stolen before its home worker picks it up, so the test
   discovers which shard ended up busy instead of assuming. *)
let shard_submit_wakes_remote_parked_thief () =
  let module Shard = Abp_serve.Shard in
  let module Serve = Shard.Serve in
  let s = Shard.create ~processes:1 ~park_after:0. ~shards:2 () in
  let release = Atomic.make false in
  Fun.protect
    ~finally:(fun () ->
      (* Always unblock before shutdown: a failed assertion must not
         leave the blocker's worker spinning forever under the join. *)
      Atomic.set release true;
      Shard.shutdown s)
    (fun () ->
      let started = Atomic.make false in
      let blocker =
        Shard.submit s (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done)
      in
      Alcotest.(check bool) "blocker started" true (Test_util.wait_until (fun () -> Atomic.get started));
      (* The blocker occupies one shard's only worker; the other worker,
         with nothing to do anywhere, must park. *)
      let parked_shard () =
        let p i = Pool.parked_workers (Serve.pool (Shard.serve s i)) = 1 in
        if p 0 then Some 0 else if p 1 then Some 1 else None
      in
      Alcotest.(check bool) "the idle shard's thief parked" true
        (Test_util.wait_until (fun () -> parked_shard () <> None));
      let busy =
        match parked_shard () with
        | Some idle -> 1 - idle
        | None -> Alcotest.fail "no parked thief"
      in
      (* A key that routes to the busy shard, flipping its inbox
         empty->nonempty; only the sibling wake can deliver the job. *)
      let kb =
        let rec go i = if Shard.shard_of_key s i = busy then i else go (i + 1) in
        go 0
      in
      let t = Shard.submit s ~key:kb (fun () -> 42) in
      (* Poll with a timeout instead of awaiting: a lost wakeup would
         otherwise hang the test forever instead of failing it. *)
      Alcotest.(check bool) "remote parked thief completed the stranded job" true
        (Test_util.wait_until (fun () -> Serve.poll t <> None));
      (match Serve.poll t with
      | Some (Serve.Returned 42) -> ()
      | _ -> Alcotest.fail "expected Returned 42");
      Alcotest.(check bool) "the job crossed the shard boundary" true
        (Shard.cross_stolen_tasks s >= 1);
      Atomic.set release true;
      match Serve.await blocker with
      | Serve.Returned () -> ()
      | _ -> Alcotest.fail "blocker completed");
  Alcotest.(check bool) "conserved after shutdown" true (Abp_serve.Shard.conserved s)

(* A pool source over an injector; its takes count in [inject_tasks]. *)
let injector_source inj =
  {
    Pool.take = (fun () -> Injector.try_pop inj);
    pending = (fun () -> not (Injector.is_empty inj));
    note = (fun c hit -> if hit then Counters.incr c Counters.inject_tasks);
    event = None;
  }

(* Lost-wakeup regression for the source path: bursts of external tasks,
   each followed by a single wake, against aggressively parking workers
   (park_after 0).  If the wake missed a parked thief, or parking ignored
   a source's [pending], a burst could strand with every worker parked.
   Run with the burst in the only source, and in the second of two
   sources (the first stays empty), so the parking check must look past
   the first entry of the list. *)
let source_burst_cannot_strand () =
  List.iter
    (fun (n_sources, into) ->
      let injs = List.init n_sources (fun _ -> Injector.create ~capacity:1024 ()) in
      let inj = List.nth injs into in
      let pool =
        Pool.create ~processes:3 ~park_after:0. ~sources:(List.map injector_source injs)
          ~spawn_all:true ()
      in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let executed = Atomic.make 0 in
          let rounds = 20 and burst = 16 in
          for round = 1 to rounds do
            (* Let the workers go idle (parking is racy; best effort). *)
            ignore (Test_util.wait_until ~timeout:0.05 (fun () -> Pool.parked_workers pool > 0));
            for _ = 1 to burst do
              Alcotest.(check bool) "burst fits inbox" true
                (Injector.try_push inj (fun () -> Atomic.incr executed))
            done;
            (* One wake for the whole burst: it must reach every parked
               worker, and none may park again while the source is
               non-empty. *)
            Pool.wake pool;
            Alcotest.(check bool)
              (Printf.sprintf "source %d of %d, round %d: all %d tasks executed" (into + 1)
                 n_sources round (round * burst))
              true
              (Test_util.wait_until (fun () -> Atomic.get executed = round * burst))
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
        (fun () ->
          if Atomic.exchange queued false then Some (fun () -> Atomic.incr ran)
          else begin
            if Atomic.exchange armed false then Atomic.set queued true;
            None
          end);
      pending = (fun () -> Atomic.get queued);
      note = (fun _ _ -> ());
      event = None;
    }
  in
  let pool =
    Pool.create ~processes:1 ~park_after:0.
      ~sources:[ injector_source (Injector.create ()); late ]
      ~spawn_all:true ()
  in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for round = 1 to 5 do
        Alcotest.(check bool) "worker parked" true
          (Test_util.wait_until (fun () -> Pool.parked_workers pool = 1));
        Atomic.set armed true;
        Pool.wake pool;
        Alcotest.(check bool)
          (Printf.sprintf "round %d: late task ran" round)
          true
          (Test_util.wait_until ~timeout:5.0 (fun () -> Atomic.get ran = round))
      done)

(* The order one worker runs tasks in: held busy by a blocker taken from
   [blocker_from] while [fill record] queues tasks that log their tags,
   then released; returns the tags once [expect] tasks ran. *)
let run_order ~sources ~blocker_from ~expect fill =
  let pool =
    Pool.create ~processes:1 ~sources:(List.map injector_source sources) ~spawn_all:true ()
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
        Injector.try_push blocker_from (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done));
      Pool.wake pool;
      Alcotest.(check bool) "blocker running" true (Test_util.wait_until (fun () -> Atomic.get started));
      fill record;
      Atomic.set release true;
      Alcotest.(check bool) "all ran" true (Test_util.wait_until (fun () -> Atomic.get ran = expect));
      List.rev !log)

(* The poll order is the list order: once both sources fill, every task
   of the first runs before any of the second. *)
let sources_polled_in_list_order () =
  let first = Injector.create ~capacity:64 () and second = Injector.create ~capacity:64 () in
  let order =
    run_order ~sources:[ first; second ] ~blocker_from:second ~expect:16 (fun record ->
        for i = 1 to 8 do
          assert (Injector.try_push second (record (Printf.sprintf "second %d" i)));
          assert (Injector.try_push first (record (Printf.sprintf "first %d" i)))
        done)
  in
  Alcotest.(check (list string))
    "first source drained before the second"
    (List.init 8 (fun i -> Printf.sprintf "first %d" (i + 1))
    @ List.init 8 (fun i -> Printf.sprintf "second %d" (i + 1)))
    order

(* The acquisition order puts the worker's own deque ahead of every
   source: children a source task pushes run (newest first) before the
   next source task. *)
let own_deque_before_sources () =
  let inj = Injector.create ~capacity:64 () in
  let order =
    run_order ~sources:[ inj ] ~blocker_from:inj ~expect:5 (fun record ->
        assert (
          Injector.try_push inj (fun () ->
              record "s1" ();
              let w = Worker.current () in
              List.iter (fun c -> Worker.push_task w (record c)) [ "c1"; "c2"; "c3" ]));
        assert (Injector.try_push inj (record "s2")))
  in
  Alcotest.(check (list string))
    "own deque drained before the next source task"
    [ "s1"; "c3"; "c2"; "c1"; "s2" ] order

(* A source's [note] runs on every poll, its hit flag is true exactly
   when the take yielded a task, and its [event] is emitted once per
   non-empty take with no subject ([arg] -1). *)
let source_note_and_event_per_take () =
  let inj = Injector.create ~capacity:64 () in
  let takes = Atomic.make 0 and notes = Atomic.make 0 and hits = Atomic.make 0 in
  let source =
    {
      Pool.take =
        (fun () ->
          Atomic.incr takes;
          Injector.try_pop inj);
      pending = (fun () -> not (Injector.is_empty inj));
      note =
        (fun _ hit ->
          Atomic.incr notes;
          if hit then Atomic.incr hits);
      event = Some Abp_trace.Event.Inject;
    }
  in
  let sink = Abp_trace.Sink.create ~ring_capacity:4096 ~workers:1 () in
  let pool = Pool.create ~processes:1 ~trace:sink ~sources:[ source ] ~spawn_all:true () in
  let n = 20 and ran = Atomic.make 0 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for _ = 1 to n do
        assert (Injector.try_push inj (fun () -> Atomic.incr ran))
      done;
      Pool.wake pool;
      Alcotest.(check bool) "every source task ran" true
        (Test_util.wait_until (fun () -> Atomic.get ran = n)));
  Alcotest.(check int) "one note per take" (Atomic.get takes) (Atomic.get notes);
  Alcotest.(check int) "hits = tasks taken" n (Atomic.get hits);
  let injects =
    List.filter
      (fun e -> e.Abp_trace.Event.kind = Abp_trace.Event.Inject)
      (Abp_trace.Sink.events sink)
  in
  Alcotest.(check int) "no events dropped" 0 (Abp_trace.Sink.dropped sink);
  Alcotest.(check int) "one event per non-empty take" n (List.length injects);
  Alcotest.(check bool) "events carry no subject" true
    (List.for_all (fun e -> e.Abp_trace.Event.arg = -1) injects)

(* [shutdown]'s wake is the conditional [Parking.wake_all]: it reads the
   waiter count and broadcasts only when a thief is registered.  Each
   cycle parks both thieves first, so every shutdown meets parked
   thieves and must still join them.  One pool (two domains) at a
   time. *)
let shutdown_wakes_parked_thieves_cycles () =
  for cycle = 1 to 100 do
    let pool = Pool.create ~processes:3 ~park_after:0. () in
    if not (Test_util.wait_until (fun () -> Pool.parked_workers pool = 2)) then
      Alcotest.failf "cycle %d: thieves never parked" cycle;
    Pool.shutdown pool;
    Alcotest.(check int) (Printf.sprintf "cycle %d: nobody parked" cycle) 0 (Pool.parked_workers pool)
  done

let tests =
  [
    Alcotest.test_case "idle thieves park" `Quick idle_thieves_park;
    Alcotest.test_case "push wakes a parked thief" `Quick push_wakes_parked_thief;
    Alcotest.test_case "conservation across park/unpark" `Quick conservation_across_park_unpark;
    Alcotest.test_case "yield ablation never parks or yields" `Quick
      ablation_never_parks_or_yields;
    Alcotest.test_case "negative or NaN park_after rejected" `Quick
      invalid_park_after_rejected;
    Alcotest.test_case "task exception re-raised at run" `Quick task_exception_reraised_at_run;
    Alcotest.test_case "task exception re-raised at shutdown" `Quick
      task_exception_reraised_at_shutdown;
    Alcotest.test_case "shard submit wakes a remote parked thief" `Quick
      shard_submit_wakes_remote_parked_thief;
    Alcotest.test_case "source burst cannot strand parked workers" `Quick
      source_burst_cannot_strand;
    Alcotest.test_case "sources polled in list order" `Quick sources_polled_in_list_order;
    Alcotest.test_case "source note and event once per take" `Quick
      source_note_and_event_per_take;
    Alcotest.test_case "own deque polled before sources" `Quick own_deque_before_sources;
    Alcotest.test_case "parking sees a late source task" `Quick
      late_arrival_seen_by_parking_check;
    Alcotest.test_case "default window parks idle workers" `Quick
      default_window_parks_idle_workers;
    Alcotest.test_case "thief inside its window stays awake" `Quick
      thief_inside_window_stays_awake;
    Alcotest.test_case "shutdown wakes parked thieves, 100 cycles" `Quick
      shutdown_wakes_parked_thieves_cycles;
  ]
