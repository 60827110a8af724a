(* The multiprogramming harness (lib/mp): preemption gates, the
   adversary-spec grammar, the controller driving the real pool, and
   the regressions the harness was built to catch — a parked thief
   woken while its gate is closed must leave no task stranded.

   Worker counts honour ABP_MP_PROCS so CI can rerun the suite
   oversubscribed (more workers than cores) to shake out lost wakeups. *)

module Pool = Abp_hood.Pool
module Par = Abp_hood.Par
module Serve = Abp_serve.Shard.Serve
module Shard = Abp_serve.Shard
module Counters = Abp_trace.Counters
module Gate = Abp_mp.Gate
module Controller = Abp_mp.Controller
module Antagonist = Abp_mp.Antagonist
module Adversary = Abp_kernel.Adversary
module Adversary_spec = Abp_kernel.Adversary_spec
module Yield = Abp_kernel.Yield

let procs () =
  match Sys.getenv_opt "ABP_MP_PROCS" with
  | Some s -> (try max 2 (int_of_string s) with _ -> 3)
  | None -> 3

let rng seed = Abp_stats.Rng.create ~seed:(Int64.of_int seed) ()

let totals pool = Counters.sum (Pool.counters pool)

(* A view for exercising adversaries directly: nobody holds work. *)
let idle_view ~round ~p =
  {
    Adversary.round;
    num_processes = p;
    has_assigned = (fun _ -> false);
    deque_size = (fun _ -> 0);
    in_critical_section = (fun _ -> false);
  }

(* ------------------------------------------------------------------ *)
(* Gate unit tests.                                                   *)

let gate_defaults_and_set () =
  let g = Gate.create ~num_workers:3 in
  for i = 0 to 2 do
    Alcotest.(check bool) "gates start open" true (Gate.is_open g i)
  done;
  Gate.set g [| true; false; true |];
  Alcotest.(check bool) "gate 1 closed" false (Gate.is_open g 1);
  Alcotest.(check bool) "gate 0 open" true (Gate.is_open g 0);
  Gate.open_all g;
  Alcotest.(check bool) "open_all reopens" true (Gate.is_open g 1);
  Alcotest.(check int) "no suspends without a waiter" 0 (Gate.suspends g 1);
  Alcotest.check_raises "set length checked"
    (Invalid_argument "Gate.set: wrong set length") (fun () -> Gate.set g [| true |])

let gate_wait_blocks_until_open () =
  let g = Gate.create ~num_workers:2 in
  Gate.set g [| true; false |];
  let waited = Atomic.make (-1.0) in
  let d = Domain.spawn (fun () -> Atomic.set waited (Gate.wait g 1)) in
  (* The waiter must still be blocked while its gate stays closed. *)
  Unix.sleepf 0.05;
  Alcotest.(check bool) "still blocked" true (Atomic.get waited < 0.0);
  Gate.open_all g;
  Domain.join d;
  Alcotest.(check bool) "wait measured the suspension" true (Atomic.get waited >= 0.04);
  Alcotest.(check int) "one suspension recorded" 1 (Gate.suspends g 1);
  Alcotest.(check bool) "suspended_seconds accumulated" true
    (Gate.suspended_seconds g 1 >= 0.04);
  Alcotest.(check bool) "total covers the worker" true
    (Gate.total_suspended_seconds g >= Gate.suspended_seconds g 1)

(* A close takes no lock, so it can land anywhere in a waiter's park.
   The controller flips the gate fast, so that closes and opens race
   the waiter's parks, and every 200 flips holds it closed until a wait
   is in progress, so that the waiter really suspends.  After the final
   open every wait must return: a lost wakeup leaves the waiter blocked
   behind an open gate. *)
let gate_flips_never_strand_a_waiter () =
  let g = Gate.create ~num_workers:1 in
  let stop = Atomic.make false and waits = Atomic.make 0 and finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          if Gate.is_open g 0 then Domain.cpu_relax ()
          else begin
            ignore (Gate.wait g 0);
            Atomic.incr waits
          end
        done;
        Atomic.set finished true)
  in
  for _ = 1 to 50 do
    for _ = 1 to 100 do
      Gate.set g [| false |];
      Gate.set g [| true |]
    done;
    Gate.set g [| false |];
    ignore (Test_util.wait_until ~timeout:1.0 (fun () -> Gate.suspends g 0 > Atomic.get waits));
    Gate.set g [| true |]
  done;
  Atomic.set stop true;
  if not (Test_util.wait_until ~timeout:10.0 (fun () -> Atomic.get finished)) then
    Alcotest.failf "waiter still blocked after the final open (%d of %d waits returned)"
      (Atomic.get waits) (Gate.suspends g 0);
  Domain.join d;
  Alcotest.(check bool) "the waiter suspended" true (Atomic.get waits > 0);
  Alcotest.(check int) "every wait counted once" (Atomic.get waits) (Gate.suspends g 0)

let gate_hook_reports_steal_fail () =
  let g = Gate.create ~num_workers:2 in
  let hits = ref [] in
  Gate.set_steal_fail g (fun i -> hits := i :: !hits);
  let hook = Gate.hook g in
  hook.Pool.on_steal_fail 1;
  hook.Pool.on_steal_fail 0;
  Alcotest.(check (list int)) "handler saw both thieves" [ 0; 1 ] !hits;
  Gate.set g [| false; true |];
  Alcotest.(check bool) "hook poll mirrors the gate" false (hook.Pool.poll 0);
  Alcotest.(check bool) "hook poll mirrors the gate" true (hook.Pool.poll 1)

(* ------------------------------------------------------------------ *)
(* Adversary grammar.                                                 *)

let duty_cycle_schedule () =
  let adv = Adversary.duty_cycle ~num_processes:3 ~on:2 ~off:1 in
  let granted round =
    Array.fold_left (fun n b -> if b then n + 1 else n) 0
      (Adversary.choose adv (idle_view ~round ~p:3))
  in
  List.iter
    (fun (round, want) ->
      Alcotest.(check int) (Printf.sprintf "round %d" round) want (granted round))
    [ (1, 3); (2, 3); (3, 0); (4, 3); (5, 3); (6, 0); (7, 3) ]

let spec_parses_every_kind () =
  List.iter
    (fun spec ->
      let adv = Adversary_spec.parse ~num_processes:4 ~rng:(rng 1) spec in
      Alcotest.(check bool)
        (Printf.sprintf "%s yields a named adversary" spec)
        true
        (String.length (Adversary.name adv) > 0))
    [
      "dedicated";
      "benign:avail=2";
      "rotor:run=3";
      "half";
      "duty:on=2,off=2";
      "markov:up=0.5,down=0.1";
      "starve-workers:width=1";
      "starve-thieves";
      "preempt-locks:width=2";
    ]

let spec_rejects_malformed () =
  let rejects spec =
    match Adversary_spec.parse ~num_processes:4 ~rng:(rng 1) spec with
    | exception Adversary_spec.Bad_spec _ -> ()
    | _ -> Alcotest.failf "%s should have been rejected" spec
  in
  rejects "nosuch";
  rejects "duty:on=2,frequency=3";
  (* unknown key *)
  rejects "duty:3,1";
  (* bare values: keyword-only grammar *)
  rejects "markov:up=notafloat";
  rejects "rotor:run="

let spec_duty_defaults () =
  (* duty with no params is on=3,off=1: rounds 1-3 granted, 4 idle. *)
  let adv = Adversary_spec.parse ~num_processes:2 ~rng:(rng 1) "duty" in
  let granted round =
    Array.exists Fun.id (Adversary.choose adv (idle_view ~round ~p:2))
  in
  Alcotest.(check bool) "round 3 on" true (granted 3);
  Alcotest.(check bool) "round 4 off" false (granted 4);
  Alcotest.(check bool) "round 5 on" true (granted 5)

(* ------------------------------------------------------------------ *)
(* Controller against the real pool.                                  *)

(* Enough parallel work to span many 1ms quanta even on a fast box. *)
let workload () = Par.fib 31
let workload_expect = 1346269

let rotor_controller_under_load () =
  let p = procs () in
  let gate = Gate.create ~num_workers:p in
  let pool = Pool.create ~processes:p ~gate:(Gate.hook gate) () in
  let adv = Adversary_spec.parse ~num_processes:p ~rng:(rng 2) "rotor:run=1" in
  let c = Controller.create ~quantum:1e-3 ~gate ~pool adv in
  Controller.start c;
  Fun.protect
    ~finally:(fun () ->
      Controller.stop c;
      Pool.shutdown pool)
    (fun () ->
      (* Suspensions are probabilistic (the run must straddle a quantum
         boundary), so retry a few short runs rather than one long one. *)
      let rec go tries =
        let v = Pool.run pool workload in
        Alcotest.(check int) "fib correct under rotor" workload_expect v;
        if totals pool |> fun t -> Counters.get t Counters.gate_suspends = 0 && tries > 0 then
          go (tries - 1)
      in
      go 20;
      Alcotest.(check bool) "controller issued quanta" true (Controller.quanta c > 0);
      Alcotest.(check bool) "workers suspended at gates" true
        (Counters.get (totals pool) Counters.gate_suspends > 0);
      Alcotest.(check bool) "gate time was integrated" true
        (Controller.suspended_seconds c > 0.0));
  Alcotest.(check string) "adversary name surfaced" "oblivious-rotor"
    (Controller.adversary_name c)

let yield_completion_under_starve () =
  (* Both yield disciplines must complete under starve-workers on
     hardware: a suspended worker's deque stays stealable (documented
     divergence from the simulator, where No_yield can stall).  The
     quantitative failed-steal comparison lives in bench/exp_mp. *)
  List.iter
    (fun (pool_yield, kernel_yield) ->
      let p = procs () in
      let gate = Gate.create ~num_workers:p in
      let pool =
        Pool.create ~processes:p ~yield_kind:pool_yield ~gate:(Gate.hook gate) ()
      in
      let adv =
        Adversary_spec.parse ~num_processes:p ~rng:(rng 3) "starve-workers:width=1"
      in
      let c = Controller.create ~quantum:1e-3 ~yield:kernel_yield ~gate ~pool adv in
      Controller.start c;
      Fun.protect
        ~finally:(fun () ->
          Controller.stop c;
          Pool.shutdown pool)
        (fun () ->
          let v = Pool.run pool workload in
          Alcotest.(check int)
            (Printf.sprintf "fib correct under %s" (Pool.yield_kind_name pool_yield))
            workload_expect v))
    [ (Pool.Yield_to_all, Yield.Yield_to_all); (Pool.No_yield, Yield.No_yield) ]

let controller_pbar_sanity () =
  let p = 2 in
  let gate = Gate.create ~num_workers:p in
  let pool = Pool.create ~processes:p ~gate:(Gate.hook gate) () in
  let adv = Adversary_spec.parse ~num_processes:p ~rng:(rng 4) "duty:on=1,off=1" in
  let c = Controller.create ~quantum:1e-3 ~gate ~pool adv in
  Controller.start c;
  Unix.sleepf 0.08;
  Controller.stop c;
  Pool.shutdown pool;
  Alcotest.(check bool) "many quanta in 80ms" true (Controller.quanta c >= 5);
  let pbar = Controller.pbar_procs c in
  (* duty 1:1 grants everyone half the quanta; wall-clock weighting can
     skew it, but it must sit strictly between the extremes. *)
  Alcotest.(check bool)
    (Printf.sprintf "pbar_procs %.2f inside (0, P)" pbar)
    true
    (pbar > 0.0 && pbar < float_of_int p);
  Alcotest.(check bool) "hardware pbar never exceeds granted pbar" true
    (Controller.pbar c <= pbar +. 1e-9)

let controller_start_stop_idempotent () =
  let p = 2 in
  let gate = Gate.create ~num_workers:p in
  let pool = Pool.create ~processes:p ~gate:(Gate.hook gate) () in
  let adv = Adversary.dedicated ~num_processes:p in
  let c = Controller.create ~gate ~pool adv in
  Controller.start c;
  Controller.start c;
  Controller.stop c;
  Controller.stop c;
  Pool.shutdown pool;
  Alcotest.(check bool) "gates reopened by stop" true (Gate.is_open gate 0)

(* ------------------------------------------------------------------ *)
(* The regressions.                                                   *)

(* A parked thief woken while its gate is closed must re-block at the
   gate (outside the park lock) without stranding the task that woke
   it: the granted worker finishes the job alone. *)
let parked_thief_wakes_into_closed_gate () =
  let gate = Gate.create ~num_workers:2 in
  let pool =
    Pool.create ~processes:2 ~park_after:0. ~gate:(Gate.hook gate) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Gate.open_all gate;
      Pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "thief parks while idle" true
        (Test_util.wait_until (fun () -> Pool.parked_workers pool = 1));
      Gate.set gate [| true; false |];
      (* The first push of the run signals the parked thief; it wakes
         into a closed gate and must suspend there, not deadlock and
         not steal.  Worker 0 completes the whole job. *)
      let v = Pool.run pool workload in
      Alcotest.(check int) "result correct with thief gated" workload_expect v;
      Alcotest.(check bool) "thief suspended at its closed gate" true
        (Test_util.wait_until (fun () -> Gate.suspends gate 1 >= 1));
      Gate.open_all gate;
      let v2 = Pool.run pool workload in
      Alcotest.(check int) "pool healthy after reopening" workload_expect v2)

(* Workers suspended by a fast rotor at arbitrary safe points hold no
   acquired-but-unrun task (every acquisition moves one task, run before
   the next safe point), so nothing is stranded and the conservation law
   holds at quiescence on every backend. *)
let suspension_conservation deque_impl () =
  let p = procs () in
  let gate = Gate.create ~num_workers:p in
  let pool = Pool.create ~processes:p ~deque_impl ~gate:(Gate.hook gate) () in
  let adv = Adversary_spec.parse ~num_processes:p ~rng:(rng 5) "rotor:run=1" in
  let c = Controller.create ~quantum:0.5e-3 ~gate ~pool adv in
  Controller.start c;
  Fun.protect
    ~finally:(fun () ->
      Controller.stop c;
      Pool.shutdown pool)
    (fun () ->
      (* Suspensions are probabilistic; retry short runs until one lands. *)
      let rec go tries =
        let v = Pool.run pool workload in
        Alcotest.(check int) "result correct under rotor" workload_expect v;
        if Counters.get (totals pool) Counters.gate_suspends = 0 && tries > 0 then go (tries - 1)
      in
      go 20);
  let t = totals pool in
  Alcotest.(check bool) "workers suspended at gates" true
    (Counters.get t Counters.gate_suspends > 0);
  Alcotest.(check int)
    "pushes = pops + stolen_tasks at quiescence"
    (Counters.get t Counters.pushes)
    (Counters.get t Counters.pops + Counters.get t Counters.stolen_tasks);
  Alcotest.(check int) "one task per steal" (Counters.get t Counters.successful_steals)
    (Counters.get t Counters.stolen_tasks)

(* A one-shard drain with the adversary still scheduling: admission
   stats must balance even though workers were suspended mid-service. *)
let serve_drain_conservation_under_adversary () =
  let p = procs () in
  let gate = Gate.create ~num_workers:p in
  let srv =
    Shard.create ~processes:p ~yield_kind:Pool.Yield_to_random ~gates:[| Gate.hook gate |]
      ~shards:1 ()
  in
  let adv =
    Adversary_spec.parse ~num_processes:p ~rng:(rng 6) "markov:up=0.4,down=0.2"
  in
  let c =
    Controller.create ~quantum:1e-3 ~yield:Yield.Yield_to_random ~gate
      ~pool:(Serve.pool (Shard.serve srv 0)) adv
  in
  Controller.start c;
  let stats =
    Fun.protect
      ~finally:(fun () ->
        Controller.stop c;
        Shard.shutdown srv)
      (fun () ->
        let tickets =
          List.init 200 (fun i ->
              Shard.try_submit srv (fun () ->
                  if i mod 50 = 49 then failwith "boom" else Par.fib 12))
        in
        (* Cancel a few; whether each cancel wins the race is immaterial,
           conservation must hold either way. *)
        List.iteri
          (fun i t ->
            match t with
            | Ok t when i mod 7 = 0 -> ignore (Serve.cancel t)
            | _ -> ())
          tickets;
        Shard.drain srv)
  in
  Alcotest.(check bool) "service made progress" true (stats.Serve.completed > 0);
  Alcotest.(check int) "accepted = completed + cancelled + exceptions"
    stats.Serve.accepted
    (stats.Serve.completed + stats.Serve.cancelled + stats.Serve.exceptions)

(* The sharded topology under the kernel adversary: per-shard gates let
   the duty-cycle adversary suspend each shard's workers independently
   (one shard can be fully gated while a sibling runs), so cross-shard
   steals race gate closures.  Conservation must hold on every shard
   individually and the cross-steal telemetry must obey its bounds.
   With ABP_MP_PROCS > cores this also runs oversubscribed. *)
let shard_conservation_under_adversary () =
  let shards = 2 in
  let p = procs () in
  let gates = Array.init shards (fun _ -> Gate.create ~num_workers:p) in
  let s =
    Shard.create ~processes:p ~yield_kind:Pool.Yield_to_random
      ~gates:(Array.map Gate.hook gates) ~shards ()
  in
  let controllers =
    Array.init shards (fun i ->
        let adv =
          Adversary_spec.parse ~num_processes:p ~rng:(rng (60 + i)) "duty:on=2,off=1"
        in
        Controller.create ~quantum:1e-3 ~yield:Yield.Yield_to_random ~gate:gates.(i)
          ~pool:(Serve.pool (Shard.serve s i)) adv)
  in
  Array.iter Controller.start controllers;
  let stats =
    Fun.protect
      ~finally:(fun () ->
        Array.iter Controller.stop controllers;
        Shard.shutdown s)
      (fun () ->
        let tickets =
          List.init 300 (fun i ->
              (* Mixed traffic: most keyed to one hot key (a single home
                 shard, forcing cross-shard overflow), the rest keyless. *)
              let key = if i mod 4 < 3 then Some "hot" else None in
              Shard.try_submit s ?key (fun () ->
                  if i mod 50 = 49 then failwith "boom" else Par.fib 12))
        in
        List.iteri
          (fun i t ->
            match t with
            | Ok t when i mod 7 = 0 -> ignore (Serve.cancel t)
            | _ -> ())
          tickets;
        Shard.drain s)
  in
  Alcotest.(check bool) "service made progress" true (stats.Serve.completed > 0);
  Alcotest.(check bool) "per-shard conservation under the adversary" true (Shard.conserved s);
  Alcotest.(check int) "aggregate conservation" stats.Serve.accepted
    (stats.Serve.completed + stats.Serve.cancelled + stats.Serve.exceptions);
  let polls = Shard.cross_polls s
  and steals = Shard.cross_shard_steals s
  and tasks = Shard.cross_stolen_tasks s in
  Alcotest.(check bool) "cross steals <= cross polls" true (steals <= polls);
  Alcotest.(check int) "one task per cross steal" steals tasks

(* ------------------------------------------------------------------ *)
(* Fibers under the adversary.                                        *)

module Fiber = Abp_fiber.Fiber
module Promise = Abp_fiber.Fiber.Promise

(* A parked continuation must survive a full gate close/reopen cycle:
   park the only in-flight computation on a promise, close EVERY gate,
   fulfil from outside (the resume lands in the pool's inbox while no
   worker may run), and verify nothing completes until the gates
   reopen — and that nothing is lost once they do.  This is the
   fiber-era version of the parked-thief-vs-closed-gate regression:
   the resume broadcast wakes parked workers straight into closed
   gates, and the wakeup must not be consumed by the gate block. *)
let parked_continuation_survives_gate_cycle () =
  let p = procs () in
  let gate = Gate.create ~num_workers:p in
  let pool = Pool.create ~processes:p ~gate:(Gate.hook gate) () in
  let fiber : int Promise.t = Promise.create () in
  let result = Atomic.make None in
  let runner =
    Domain.spawn (fun () ->
        Atomic.set result (Some (Pool.run pool (fun () -> Fiber.await fiber))))
  in
  Fun.protect
    ~finally:(fun () ->
      Gate.open_all gate;
      Domain.join runner;
      Pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "computation parked" true
        (Test_util.wait_until (fun () -> Pool.suspended pool = 1));
      Gate.set gate (Array.make p false);
      (* Let every worker reach a safe point and block (or park). *)
      Unix.sleepf 0.05;
      Promise.fulfil fiber 777;
      Unix.sleepf 0.05;
      Alcotest.(check bool) "nothing completes while every gate is closed" true
        (Atomic.get result = None);
      Gate.open_all gate;
      Alcotest.(check bool) "continuation resumed after reopen" true
        (Test_util.wait_until (fun () -> Atomic.get result <> None));
      Alcotest.(check (option int)) "value survived the gate cycle" (Some 777)
        (Atomic.get result);
      let t = Counters.sum (Pool.counters pool) in
      Alcotest.(check int) "one suspension" 1 (Counters.get t Counters.suspensions);
      Alcotest.(check int) "one resume" 1 (Counters.get t Counters.resumes);
      Alcotest.(check int) "nothing left suspended" 0 (Pool.suspended pool))

(* Await-heavy sharded service under per-shard duty-cycle adversaries:
   requests suspend on a simulated backend (plus a few on a promise
   that is failed, driving the discontinue path) while gates open and
   close under them.  The extended conservation identity must collapse
   cleanly at drain and the suspension counters must balance across
   every shard pool.  With ABP_MP_PROCS > cores this runs
   oversubscribed. *)
let fiber_await_shard_under_adversary () =
  let module Backend = Abp_serve.Backend in
  let shards = 2 in
  let p = procs () in
  let gates = Array.init shards (fun _ -> Gate.create ~num_workers:p) in
  let s =
    Shard.create ~processes:p ~yield_kind:Pool.Yield_to_random
      ~gates:(Array.map Gate.hook gates) ~shards ()
  in
  let backend = Backend.create ~workers:2 () in
  let controllers =
    Array.init shards (fun i ->
        let adv =
          Adversary_spec.parse ~num_processes:p ~rng:(rng (80 + i)) "duty:on=2,off=1"
        in
        Controller.create ~quantum:1e-3 ~yield:Yield.Yield_to_random ~gate:gates.(i)
          ~pool:(Serve.pool (Shard.serve s i)) adv)
  in
  Array.iter Controller.start controllers;
  let stats =
    Fun.protect
      ~finally:(fun () ->
        Array.iter Controller.stop controllers;
        Shard.shutdown s;
        Backend.stop backend)
      (fun () ->
        let doomed : int Promise.t = Promise.create () in
        let outcomes =
          List.init 200 (fun i ->
              let key = if i mod 4 < 3 then Some "hot" else None in
              Serve.outcome @@ Shard.submit s ?key (fun () ->
                  if i mod 40 = 39 then
                    (* Failure delivered INTO a parked continuation:
                       the discontinue path under the adversary. *)
                    Fiber.await doomed
                  else begin
                    let v = Fiber.await (Backend.call backend ~delay:2e-4 i) in
                    if i mod 50 = 49 then failwith "boom" else v
                  end))
        in
        Promise.fail doomed (Failure "doomed");
        List.iter (fun o -> ignore (Test_util.wait_until (fun () -> Promise.is_resolved o))) outcomes;
        let raised =
          List.length
            (List.filter
               (fun o -> match Promise.try_await o with Some (Serve.Raised _) -> true | _ -> false)
               outcomes)
        in
        (* 5 requests hit the failed promise (i mod 40 = 39) and 3 more
           raise after resuming (i mod 50 = 49, minus the overlap at
           199): 8 raised outcomes in total. *)
        Alcotest.(check int) "both exception paths observed" 8 raised;
        Shard.drain s)
  in
  Alcotest.(check bool) "service made progress" true (stats.Serve.completed > 0);
  Alcotest.(check bool) "per-shard conservation under the adversary" true (Shard.conserved s);
  Alcotest.(check int) "aggregate extended identity collapses at drain" stats.Serve.accepted
    (stats.Serve.completed + stats.Serve.cancelled + stats.Serve.exceptions);
  Alcotest.(check int) "nothing left suspended" 0 stats.Serve.suspended;
  let susp = ref 0 and res = ref 0 in
  for i = 0 to shards - 1 do
    let t = Counters.sum (Pool.counters (Serve.pool (Shard.serve s i))) in
    susp := !susp + Counters.get t Counters.suspensions;
    res := !res + Counters.get t Counters.resumes
  done;
  Alcotest.(check int) "suspensions balance resumes across shards" !res !susp;
  Alcotest.(check bool) "requests actually suspended" true (!susp > 0)

(* ------------------------------------------------------------------ *)
(* Antagonist.                                                        *)

let antagonist_starts_and_stops () =
  let a = Antagonist.start ~spinners:2 in
  Alcotest.(check int) "spinner count" 2 (Antagonist.spinners a);
  Antagonist.stop a;
  Antagonist.stop a (* idempotent *)

let tests =
  [
    Alcotest.test_case "gate defaults and set" `Quick gate_defaults_and_set;
    Alcotest.test_case "gate wait blocks until open" `Quick gate_wait_blocks_until_open;
    Alcotest.test_case "gate hook reports steal fail" `Quick gate_hook_reports_steal_fail;
    Alcotest.test_case "duty cycle schedule" `Quick duty_cycle_schedule;
    Alcotest.test_case "spec parses every kind" `Quick spec_parses_every_kind;
    Alcotest.test_case "spec rejects malformed" `Quick spec_rejects_malformed;
    Alcotest.test_case "spec duty defaults" `Quick spec_duty_defaults;
    Alcotest.test_case "rotor controller under load" `Slow rotor_controller_under_load;
    Alcotest.test_case "yield completion under starve" `Slow yield_completion_under_starve;
    Alcotest.test_case "controller pbar sanity" `Quick controller_pbar_sanity;
    Alcotest.test_case "controller start/stop idempotent" `Quick
      controller_start_stop_idempotent;
    Alcotest.test_case "parked thief wakes into closed gate" `Slow
      parked_thief_wakes_into_closed_gate;
    Alcotest.test_case "suspension conservation under rotor (abp)" `Slow
      (suspension_conservation Pool.Abp);
    Alcotest.test_case "suspension conservation under rotor (circular)" `Slow
      (suspension_conservation Pool.Circular);
    Alcotest.test_case "suspension conservation under rotor (locked)" `Slow
      (suspension_conservation Pool.Locked);
    Alcotest.test_case "serve drain conservation under adversary" `Slow
      serve_drain_conservation_under_adversary;
    Alcotest.test_case "shard conservation under adversary" `Slow
      shard_conservation_under_adversary;
    Alcotest.test_case "parked continuation survives gate cycle" `Slow
      parked_continuation_survives_gate_cycle;
    Alcotest.test_case "fiber await shard conservation under adversary" `Slow
      fiber_await_shard_under_adversary;
    Alcotest.test_case "antagonist starts and stops" `Quick antagonist_starts_and_stops;
    Alcotest.test_case "gate flips never strand a waiter" `Quick gate_flips_never_strand_a_waiter;
  ]
