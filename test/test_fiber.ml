(* Tests for the fiber subsystem: promise semantics, the Await handler
   in isolation (inline scheduler), suspension and resumption through
   the real pool (external fulfillers exercising the resume inbox),
   the Future bridge (the work-first inline join and its suspending
   miss path under each deque, exception propagation, [both]
   evaluation order), promise-returning Serve/Shard admission, the
   await-aware conservation identity mid-flight and at drain, and the
   suspension telemetry counters. *)

module Fiber = Abp_fiber.Fiber
module Promise = Abp_fiber.Fiber.Promise
module Pool = Abp_hood.Pool
module Future = Abp_hood.Future
module Serve = Abp_serve.Shard.Serve
module Shard = Abp_serve.Shard
module Backend = Abp_serve.Backend
module Counters = Abp_trace.Counters

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

(* Worker count for the multi-worker tests; honours ABP_MP_PROCS so CI
   can rerun the suite oversubscribed (more workers than cores) to
   shake out lost resumes. *)
let procs () =
  match Sys.getenv_opt "ABP_MP_PROCS" with
  | Some s -> ( try max 2 (int_of_string s) with _ -> 2)
  | None -> 2

(* Bounded wait for an asynchronous condition (external fulfillers,
   workers catching up); failing the bound fails the test instead of
   hanging it. *)
let eventually ?(timeout = 10.0) pred =
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

let rec poll_outcome p =
  match Promise.try_await p with
  | Some o -> o
  | None ->
      Domain.cpu_relax ();
      poll_outcome p

let pool_fiber_counters pool =
  let t = Counters.sum (Pool.counters pool) in
  Counters.(get t suspensions, get t resumes, get t suspended_peak)

(* ------------------------------------------------------------------ *)
(* Promise semantics (no scheduler involved)                           *)

let promise_basics () =
  let p = Promise.create () in
  Alcotest.(check bool) "pending" false (Promise.is_resolved p);
  Alcotest.(check (option int)) "try_await pending" None (Promise.try_await p);
  Alcotest.(check bool) "peek pending" true (Promise.peek p = None);
  Promise.fulfil p 42;
  Alcotest.(check bool) "resolved" true (Promise.is_resolved p);
  Alcotest.(check (option int)) "try_await" (Some 42) (Promise.try_await p);
  (* [await] on a resolved promise returns on the fast path — legal
     even outside any handler. *)
  Alcotest.(check int) "await resolved, no handler" 42 (Promise.await p);
  Alcotest.(check bool) "double try_fulfil refused" false (Promise.try_fulfil p 0);
  Alcotest.check_raises "double fulfil raises"
    (Invalid_argument "Fiber.Promise.fulfil: promise already resolved") (fun () ->
      Promise.fulfil p 0);
  Alcotest.check_raises "fail after fulfil raises"
    (Invalid_argument "Fiber.Promise.fail: promise already resolved") (fun () ->
      Promise.fail p Exit)

exception Boom

let promise_failure () =
  let p = Promise.create () in
  Promise.fail p Boom;
  Alcotest.(check bool) "resolved" true (Promise.is_resolved p);
  Alcotest.check_raises "try_await re-raises" Boom (fun () ->
      ignore (Promise.try_await p : int option));
  (match Promise.peek p with
  | Some (Error (Boom, _)) -> ()
  | _ -> Alcotest.fail "peek should expose the failure");
  Alcotest.(check bool) "try_fulfil after fail refused" false (Promise.try_fulfil p 1)

(* The handler in isolation: under the inline scheduler a pending await
   parks the continuation, [run] returns with the body suspended, and
   the fulfil executes the rest of the body on the fulfiller's stack. *)
let inline_sched_suspends_and_resumes () =
  let p = Promise.create () in
  let r = ref 0 in
  Fiber.run Fiber.inline_sched (fun () -> r := Fiber.await p + 1);
  Alcotest.(check int) "body parked, nothing ran" 0 !r;
  Promise.fulfil p 41;
  Alcotest.(check int) "fulfil drove the continuation" 42 !r

(* The handler itself: the effect function's closure over [sched],
   the one-field handler record [try_with] takes and the runtime's
   wrapper of the effect function.  [Fiber.run] wraps every task a pool
   executes, a served request's job included, and every resume.  Word counts repeat exactly, so this is an exact bound. *)
let inline_sched_run_allocation () =
  let n = 10_000 in
  let body () = () in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    Fiber.run Fiber.inline_sched body
  done;
  let per_run = (Gc.minor_words () -. before) /. float_of_int n in
  if per_run > 11. then Alcotest.failf "Fiber.run of an empty body allocates %.2f words (> 11)" per_run

let inline_sched_discontinues_on_fail () =
  let p = Promise.create () in
  let observed = ref "" in
  Fiber.run Fiber.inline_sched (fun () ->
      match Fiber.await p with
      | (_ : int) -> observed := "returned"
      | exception Boom -> observed := "boom");
  Alcotest.(check string) "parked" "" !observed;
  Promise.fail p Boom;
  Alcotest.(check string) "failure delivered into the continuation" "boom" !observed

(* ------------------------------------------------------------------ *)
(* Through the pool: external fulfil -> resume inbox -> continuation    *)

let pool_await_external_fulfil () =
  let pool = Pool.create ~processes:(procs ()) () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let v =
        Pool.run pool (fun () ->
            let p = Promise.create () in
            let d =
              Domain.spawn (fun () ->
                  Unix.sleepf 0.002;
                  Promise.fulfil p 1234)
            in
            let v = Fiber.await p in
            Domain.join d;
            v)
      in
      Alcotest.(check int) "value through suspension" 1234 v;
      let susp, res, peak = pool_fiber_counters pool in
      Alcotest.(check int) "one suspension" 1 susp;
      Alcotest.(check int) "one resume" 1 res;
      Alcotest.(check int) "peak gauge" 1 peak;
      Alcotest.(check int) "nothing left suspended" 0 (Pool.suspended pool))

(* ------------------------------------------------------------------ *)
(* Future bridge                                                       *)

let future_differential_fib () =
  let pool = Pool.create ~processes:(procs ()) () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let rec fib n =
        if n < 10 then fib_seq n
        else
          let a, b = Future.both (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
          a + b
      in
      let v = Pool.run pool (fun () -> fib 18) in
      Alcotest.(check int) "parallel fib = sequential fib" (fib_seq 18) v;
      let susp, res, _ = pool_fiber_counters pool in
      Alcotest.(check int) "suspensions balance resumes" res susp;
      Alcotest.(check int) "nothing left suspended" 0 (Pool.suspended pool))

let future_exception_propagates () =
  let pool = Pool.create ~processes:(procs ()) () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let observed =
        Pool.run pool (fun () ->
            let f = Future.spawn (fun () -> raise Boom) in
            match Future.force f with (_ : int) -> "returned" | exception Boom -> "boom")
      in
      Alcotest.(check string) "spawned task's exception re-raised at force" "boom" observed;
      Alcotest.(check int) "nothing left suspended" 0 (Pool.suspended pool))

let future_both_evaluation_order () =
  let pool = Pool.create ~processes:(procs ()) () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let g_ran_before_force = Atomic.make false in
      let a, b =
        Pool.run pool (fun () ->
            Future.both
              (fun () -> fib_seq 12)
              (fun () ->
                (* [both] must run [g] inline BEFORE forcing [f]'s
                   future — the paper's fork-join order. *)
                Atomic.set g_ran_before_force true;
                99))
      in
      Alcotest.(check int) "f's value" (fib_seq 12) a;
      Alcotest.(check int) "g's value" 99 b;
      Alcotest.(check bool) "g ran inline" true (Atomic.get g_ran_before_force))

(* The work-first join, under each deque implementation.  A 1-worker
   pool has no thieves, so which strategy [force] takes is fixed by the
   spawn order alone. *)

let deque_impls = [ ("abp", Pool.Abp); ("circular", Pool.Circular); ("locked", Pool.Locked) ]

let with_pool1 deque_impl f =
  let pool = Pool.create ~processes:1 ~deque_impl () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let pool_totals pool =
  let t = Counters.sum (Pool.counters pool) in
  Counters.(get t pushes, get t pops, get t stolen_tasks, get t suspensions, get t resumes)

let check_conserved pool =
  let pushes, pops, stolen, _, _ = pool_totals pool in
  Alcotest.(check int) "pushes = pops + stolen_tasks" pushes (pops + stolen);
  Alcotest.(check int) "nothing left suspended" 0 (Pool.suspended pool)

(* Every child of a [both] tree is still at the forcer's deque bottom
   when it is joined, so no join suspends. *)
let future_unstolen_inline deque_impl () =
  with_pool1 deque_impl (fun pool ->
      let rec fib n =
        if n < 8 then fib_seq n
        else
          let a, b = Future.both (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
          a + b
      in
      Alcotest.(check int) "fib" (fib_seq 16) (Pool.run pool (fun () -> fib 16));
      let pushes, pops, _, susp, _ = pool_totals pool in
      Alcotest.(check bool) "children were spawned" true (pushes > 0);
      Alcotest.(check int) "no join suspended" 0 susp;
      Alcotest.(check int) "pushes = pops" pushes pops)

(* Forcing the older of two futures finds the younger at the bottom:
   the miss pushes it back and suspends exactly once. *)
let future_miss_suspends deque_impl () =
  with_pool1 deque_impl (fun pool ->
      let a, b =
        Pool.run pool (fun () ->
            let fa = Future.spawn (fun () -> fib_seq 10) in
            let fb = Future.spawn (fun () -> fib_seq 11) in
            let a = Future.force fa in
            (a, Future.force fb))
      in
      Alcotest.(check int) "a" (fib_seq 10) a;
      Alcotest.(check int) "b" (fib_seq 11) b;
      let _, _, _, susp, res = pool_totals pool in
      Alcotest.(check int) "one suspension" 1 susp;
      Alcotest.(check int) "one resume" 1 res;
      check_conserved pool)

let future_inline_exception deque_impl () =
  with_pool1 deque_impl (fun pool ->
      let raised = Failure "inline child" in
      let observed =
        Pool.run pool (fun () ->
            let f = Future.spawn (fun () -> raise raised) in
            match Future.force f with (_ : int) -> None | exception e -> Some e)
      in
      Alcotest.(check bool) "the child's exception re-raised at force" true
        (match observed with Some e -> e == raised | None -> false);
      let _, _, _, susp, _ = pool_totals pool in
      Alcotest.(check int) "joined inline" 0 susp;
      check_conserved pool)

(* An inlined child that awaits parks together with its parent: one
   suspension covers both, and the fulfil resumes the whole chain.  The
   helper fulfils once the child has reached its await and something
   is parked (or after the bound, so a failing run cannot hang). *)
let future_inline_child_awaits deque_impl () =
  with_pool1 deque_impl (fun pool ->
      let p = Promise.create () in
      let awaiting = Atomic.make false in
      let helper =
        Domain.spawn (fun () ->
            ignore (eventually (fun () -> Atomic.get awaiting && Pool.suspended pool >= 1));
            Promise.fulfil p 41)
      in
      let child () =
        Atomic.set awaiting true;
        Fiber.await p + 1
      in
      let v = Pool.run pool (fun () -> Future.force (Future.spawn child)) in
      Domain.join helper;
      Alcotest.(check int) "value after the fulfil" 42 v;
      let _, _, _, susp, res = pool_totals pool in
      Alcotest.(check int) "parent and child parked as one" 1 susp;
      Alcotest.(check int) "one resume" 1 res;
      check_conserved pool)

(* A second task forces a future while its spawner is inlining it.  The
   inlined child awaits an external promise, which parks it together
   with its spawner; the worker then runs the second task, whose force
   finds the cell unpublished and installs the future's promise.  The
   child's publish must fulfil that promise: both forcers get the same
   value.  Three suspensions: spawner+child, the second forcer, and the
   spawner's join of the second task (its continuation sits on the
   bottom, a miss). *)
let forced_during_inline deque_impl child_outcome =
  with_pool1 deque_impl (fun pool ->
      let p = Promise.create () in
      let helper =
        Domain.spawn (fun () ->
            ignore (eventually (fun () -> Pool.suspended pool >= 2));
            Promise.fulfil p 41)
      in
      let seen_by_second = ref true and seen_by_child = ref true in
      let outcome f = match Future.force f with v -> Ok v | exception e -> Error e in
      let first, second =
        Pool.run pool (fun () ->
            let fut = ref None in
            let second =
              Future.spawn (fun () ->
                  let f = Option.get !fut in
                  seen_by_second := Future.is_resolved f;
                  outcome f)
            in
            let f =
              Future.spawn (fun () ->
                  let v = Fiber.await p in
                  seen_by_child := Future.is_resolved (Option.get !fut);
                  child_outcome v)
            in
            fut := Some f;
            let first = outcome f in
            (first, Future.force second))
      in
      Domain.join helper;
      Alcotest.(check bool) "second forcer found the future pending" false !seen_by_second;
      Alcotest.(check bool) "pending while the child still runs" false !seen_by_child;
      let _, _, _, susp, res = pool_totals pool in
      Alcotest.(check int) "three suspensions" 3 susp;
      Alcotest.(check int) "three resumes" 3 res;
      check_conserved pool;
      (first, second))

let future_forced_during_inline deque_impl () =
  match forced_during_inline deque_impl (fun v -> string_of_int (v + 1)) with
  | Ok a, Ok b ->
      Alcotest.(check string) "spawner's value" "42" a;
      Alcotest.(check bool) "second forcer got the same value" true (a == b)
  | _ -> Alcotest.fail "both forcers should get the value"

let future_forced_during_inline_raises deque_impl () =
  let raised = Failure "inlined child" in
  match forced_during_inline deque_impl (fun _ -> raise raised) with
  | Error a, Error b ->
      Alcotest.(check bool) "spawner re-raised the child's exception" true (a == raised);
      Alcotest.(check bool) "second forcer re-raised the same value" true (b == raised)
  | _ -> Alcotest.fail "both forcers should re-raise"

(* A second force reads the published cell: the same value, whether the
   first join ran inline or waited on the promise. *)
let future_forced_twice deque_impl () =
  with_pool1 deque_impl (fun pool ->
      let inline_twice, waited_twice =
        Pool.run pool (fun () ->
            let f = Future.spawn (fun () -> ref 1) in
            let a = Future.force f in
            let inline_twice = a == Future.force f in
            let fa = Future.spawn (fun () -> ref 2) in
            let fb = Future.spawn (fun () -> ref 3) in
            let a = Future.force fa in
            let waited_twice = a == Future.force fa in
            ignore (Future.force fb);
            (inline_twice, waited_twice))
      in
      Alcotest.(check bool) "inline join, forced twice" true inline_twice;
      Alcotest.(check bool) "waited join, forced twice" true waited_twice;
      check_conserved pool)

(* [is_resolved] before and after the join, on both resolved shapes: a
   cell the task published into, and an installed promise it
   fulfilled. *)
let future_is_resolved deque_impl () =
  with_pool1 deque_impl (fun pool ->
      let before, after, waited, other =
        Pool.run pool (fun () ->
            let f = Future.spawn (fun () -> 1) in
            let before = Future.is_resolved f in
            ignore (Future.force f);
            let after = Future.is_resolved f in
            let fa = Future.spawn (fun () -> 2) in
            let fb = Future.spawn (fun () -> 3) in
            ignore (Future.force fa);
            let waited = Future.is_resolved fa and other = Future.is_resolved fb in
            ignore (Future.force fb);
            (before, after, waited, other))
      in
      Alcotest.(check bool) "pending before the join" false before;
      Alcotest.(check bool) "resolved after an inline join" true after;
      Alcotest.(check bool) "resolved after a waited join" true waited;
      Alcotest.(check bool) "the younger sibling ran first" true other;
      check_conserved pool)

let work_first_tests =
  List.concat_map
    (fun (name, impl) ->
      let case label f =
        Alcotest.test_case (Printf.sprintf "future: %s (%s)" label name) `Quick (f impl)
      in
      [
        case "unstolen joins run inline" future_unstolen_inline;
        case "miss pushes back and suspends" future_miss_suspends;
        case "inline child's exception re-raised" future_inline_exception;
        case "inlined child awaits with its parent" future_inline_child_awaits;
        case "second forcer during an inline join" future_forced_during_inline;
        case "second forcer during a raising inline join" future_forced_during_inline_raises;
        case "forced twice returns the same value" future_forced_twice;
        case "is_resolved before and after the join" future_is_resolved;
      ])
    deque_impls

(* ------------------------------------------------------------------ *)
(* Serve: a ticket's outcome promise                                   *)

let with_serve ?processes ?inbox_capacity f =
  let s = Shard.create ?processes ?inbox_capacity ~shards:1 () in
  Fun.protect ~finally:(fun () -> Shard.shutdown s) (fun () -> f s)

let outcome_of tk = poll_outcome (Serve.outcome tk)

let serve_outcome_returns () =
  with_serve ~processes:(procs ()) (fun s ->
      let p = Shard.submit s (fun () -> fib_seq 12) in
      (match outcome_of p with
      | Serve.Returned v -> Alcotest.(check int) "value" (fib_seq 12) v
      | _ -> Alcotest.fail "expected Returned");
      let q = Shard.submit s (fun () -> raise Boom) in
      (match outcome_of q with
      | Serve.Raised Boom -> ()
      | _ -> Alcotest.fail "expected Raised Boom");
      let st = Shard.drain s in
      Alcotest.(check int) "conserved at drain" st.Serve.accepted
        (st.Serve.completed + st.Serve.cancelled + st.Serve.exceptions);
      Alcotest.(check int) "one exception" 1 st.Serve.exceptions)

(* A queued-but-never-started submission must settle its promise as
   Cancelled: deadline expiry observed at dequeue time... *)
let serve_outcome_deadline_cancelled () =
  with_serve ~processes:1 (fun s ->
      let release = Atomic.make false in
      let blocker =
        Shard.submit s (fun () ->
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            0)
      in
      (* The only worker is pinned; this submission sits queued past
         its (already expired) deadline. *)
      let doomed = Shard.submit s ~deadline:1e-9 (fun () -> 1) in
      Unix.sleepf 0.005;
      Atomic.set release true;
      (match outcome_of doomed with
      | Serve.Cancelled Serve.Deadline -> ()
      | Serve.Cancelled _ -> Alcotest.fail "cancelled for the wrong reason"
      | _ -> Alcotest.fail "expected Cancelled Deadline");
      (match outcome_of blocker with
      | Serve.Returned 0 -> ()
      | _ -> Alcotest.fail "blocker should complete");
      let st = Shard.drain s in
      Alcotest.(check int) "cancelled counted" 1 st.Serve.cancelled)

(* ...and shutdown drop: stop the workers with the task still queued —
   the promise must settle Cancelled Shutdown. *)
let serve_outcome_shutdown_cancelled () =
  let s = Shard.create ~processes:1 ~inbox_capacity:2 ~shards:1 () in
  let release = Atomic.make false in
  let blocker =
    Shard.submit s (fun () ->
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        0)
  in
  (* Wait until the blocker holds the only worker, so the next
     submission stays queued. *)
  Alcotest.(check bool) "blocker started" true
    (eventually (fun () -> (Shard.stats s).Serve.accepted = 1 && (Shard.inbox_depths s).(0) = 0));
  let doomed = Serve.outcome (Shard.submit s (fun () -> 1)) in
  ignore (Shard.submit s (fun () -> 2));
  (* The two-slot inbox is now full.  Release the blocker only once
     shutdown has closed admission (a probe turns from Inbox_full to
     Draining), so the worker cannot reach [doomed] before the join. *)
  let releaser =
    Domain.spawn (fun () ->
        while Shard.try_submit s (fun () -> 0) = Error Serve.Inbox_full do
          Domain.cpu_relax ()
        done;
        Atomic.set release true)
  in
  Shard.shutdown s;
  Domain.join releaser;
  (match Promise.try_await doomed with
  | Some (Serve.Cancelled Serve.Shutdown) -> ()
  | _ -> Alcotest.fail "expected Cancelled Shutdown after shutdown");
  match outcome_of blocker with
  | Serve.Returned 0 -> ()
  | _ -> Alcotest.fail "started task should have completed"

let serve_try_submit_rejects_when_draining () =
  with_serve ~processes:1 (fun s ->
      ignore (Shard.drain s);
      (match Shard.try_submit s (fun () -> 0) with
      | Error Serve.Draining -> ()
      | _ -> Alcotest.fail "expected Draining reject");
      Alcotest.check_raises "submit raises once draining"
        (Failure "Shard.submit: admission stopped (draining or shut down)") (fun () ->
          ignore (Shard.submit s (fun () -> 0))))

(* [Serve.await] performs the fiber's [Await] and falls back on a
   blocking wait only when no fiber handler takes it.  A request held
   on [release] stays pending until [release_after] lets it go, once
   [armed] is set, so each case calls [Serve.await] on a pending
   ticket.  The releaser gives up waiting for [armed] after 2 s, so an
   await that blocks where it should suspend fails the case instead of
   hanging it. *)
type _ Effect.t += Ping : int Effect.t

let held_request s release = Shard.submit s (fun () -> Fiber.await release)

let release_after armed release =
  Domain.spawn (fun () ->
      let t0 = Unix.gettimeofday () in
      while not (Atomic.get armed) && Unix.gettimeofday () -. t0 < 2.0 do
        Domain.cpu_relax ()
      done;
      Unix.sleepf 0.005;
      Promise.fulfil release 7)

(* A plain domain under a foreign deep handler that does not handle
   [Await]: the perform passes through it, finds no handler and raises
   [Unhandled], and the caller blocks until the request settles. *)
let serve_await_blocks_under_foreign_handler () =
  with_serve ~processes:1 (fun s ->
      let release = Promise.create () and armed = Atomic.make false in
      let tk = held_request s release in
      let releaser = release_after armed release in
      let got =
        Effect.Deep.match_with
          (fun () ->
            Alcotest.(check bool) "pending at the call" false (Promise.is_resolved (Serve.outcome tk));
            Atomic.set armed true;
            let o = Serve.await tk in
            (o, Effect.perform Ping))
          ()
          {
            retc = Fun.id;
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Ping -> Some (fun (k : (a, _) Effect.Deep.continuation) -> Effect.Deep.continue k 1)
                | _ -> None);
          }
      in
      Domain.join releaser;
      match got with
      | Serve.Returned 7, 1 -> ()
      | _ -> Alcotest.fail "expected Returned 7 through the foreign handler")

(* Under a fiber handler the await suspends: [Fiber.run] returns before
   the request settles, and the fulfil runs the rest of the body (the
   inline scheduler continues it on the fulfilling worker). *)
let serve_await_suspends_under_fiber_run () =
  with_serve ~processes:1 (fun s ->
      let release = Promise.create () and armed = Atomic.make false in
      let tk = held_request s release in
      let releaser = release_after armed release in
      let got = Atomic.make None in
      Fiber.run Fiber.inline_sched (fun () -> Atomic.set got (Some (Serve.await tk)));
      Alcotest.(check bool) "body returned before the request settled" true
        (Atomic.get got = None && not (Promise.is_resolved (Serve.outcome tk)));
      Atomic.set armed true;
      Alcotest.(check bool) "the continuation ran" true (eventually (fun () -> Atomic.get got <> None));
      Domain.join releaser;
      match Atomic.get got with
      | Some (Serve.Returned 7) -> ()
      | _ -> Alcotest.fail "expected Returned 7 in the resumed body")

(* ------------------------------------------------------------------ *)
(* The await-aware conservation identity, observed mid-flight           *)

let serve_suspended_identity_midflight () =
  with_serve ~processes:(procs ()) (fun s ->
      let gatep : int Promise.t = Promise.create () in
      let n = 4 in
      let tickets = List.init n (fun _ -> Shard.submit s (fun () -> Fiber.await gatep)) in
      (* Quiescent point: all n requests accepted, started, and parked
         on the promise; no worker holds any of them on its stack.
         [suspended] counts from the claim, so a started request still
         on its way to the await counts too: wait on the pool's gauge
         of parked continuations first. *)
      Alcotest.(check bool) "all requests parked" true
        (eventually (fun () -> Pool.suspended (Serve.pool (Shard.serve s 0)) = n));
      let st = Shard.stats s in
      Alcotest.(check int) "accepted" n st.Serve.accepted;
      Alcotest.(check int) "none completed while parked" 0 st.Serve.completed;
      Alcotest.(check int) "suspended gauge" n st.Serve.suspended;
      Alcotest.(check int) "extended identity holds mid-flight" st.Serve.accepted
        (st.Serve.completed + st.Serve.cancelled + st.Serve.exceptions + st.Serve.suspended);
      Promise.fulfil gatep 7;
      List.iter
        (fun t ->
          match Serve.await t with
          | Serve.Returned 7 -> ()
          | _ -> Alcotest.fail "parked request should resume with the fulfilled value")
        tickets;
      let st = Shard.drain s in
      Alcotest.(check int) "completed after fulfil" n st.Serve.completed;
      Alcotest.(check int) "identity collapses at drain" st.Serve.accepted
        (st.Serve.completed + st.Serve.cancelled + st.Serve.exceptions);
      Alcotest.(check int) "suspended zero at drain" 0 st.Serve.suspended;
      let susp, res, peak = pool_fiber_counters (Serve.pool (Shard.serve s 0)) in
      Alcotest.(check int) "suspensions" n susp;
      Alcotest.(check int) "resumes" n res;
      Alcotest.(check bool) "peak within [1..n]" true (peak >= 1 && peak <= n))

(* ------------------------------------------------------------------ *)
(* Backend simulator + counters balance under load                     *)

let backend_basics () =
  let b = Backend.create ~workers:1 () in
  let p = Backend.call b ~delay:0.0 17 in
  Alcotest.(check bool) "fulfilled soon" true (eventually (fun () -> Promise.is_resolved p));
  Alcotest.(check (option int)) "value" (Some 17) (Promise.try_await p);
  Alcotest.(check int) "calls counted" 1 (Backend.calls b);
  Backend.stop b;
  Alcotest.check_raises "call after stop rejected"
    (Invalid_argument "Backend.call: backend stopped") (fun () ->
      ignore (Backend.call b ~delay:0.0 0 : int Promise.t));
  Alcotest.check_raises "zero workers rejected"
    (Invalid_argument "Backend.create: workers >= 1 required") (fun () ->
      ignore (Backend.create ~workers:0 ()))

(* Every fulfil is recorded once, and none is early: a negative sample
   (counted in [underflow]) would mean a promise resolved before its
   due time. *)
let backend_lateness_recorded () =
  let b = Backend.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Backend.stop b)
    (fun () ->
      let n = 200 in
      let ps = List.init n (fun i -> Backend.call b ~delay:(1e-5 *. float_of_int (i mod 30)) i) in
      Alcotest.(check bool) "all settled" true
        (eventually (fun () -> List.for_all Promise.is_resolved ps));
      let h = Backend.lateness b in
      Alcotest.(check int) "one sample per call" n (Abp_stats.Log_histogram.count h);
      Alcotest.(check int) "no early fulfil" 0 (Abp_stats.Log_histogram.underflow h))

let counters_balance_under_async_load () =
  let s = Shard.create ~processes:(procs ()) ~inbox_capacity:256 ~shards:1 () in
  let b = Backend.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () ->
      Backend.stop b;
      Shard.shutdown s)
    (fun () ->
      let clients = 4 and per_client = 100 and depth = 2 in
      let ds =
        Array.init clients (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_client do
                  let p =
                    Shard.submit s (fun () ->
                        let v = ref (fib_seq 8) in
                        for _ = 1 to depth do
                          v := Fiber.await (Backend.call b ~delay:2e-4 !v)
                        done;
                        !v)
                  in
                  match outcome_of p with
                  | Serve.Returned _ -> ()
                  | _ -> Alcotest.fail "async request should return"
                done))
      in
      Array.iter Domain.join ds;
      let st = Shard.drain s in
      Alcotest.(check int) "all completed" (clients * per_client) st.Serve.completed;
      Alcotest.(check int) "suspended zero at drain" 0 st.Serve.suspended;
      let susp, res, peak = pool_fiber_counters (Serve.pool (Shard.serve s 0)) in
      Alcotest.(check int) "suspensions balance resumes exactly" res susp;
      Alcotest.(check bool) "requests actually suspended" true (susp > 0);
      Alcotest.(check bool) "peak gauge positive" true (peak > 0);
      Alcotest.(check bool) "peak bounded by in-flight requests" true
        (peak <= clients * per_client))

(* ------------------------------------------------------------------ *)
(* Shard: async admission and await-aware conservation                 *)

let shard_async_conservation () =
  let s = Shard.create ~processes:1 ~shards:2 () in
  let b = Backend.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () ->
      Backend.stop b;
      Shard.shutdown s)
    (fun () ->
      let n = 40 in
      let ps =
        List.init n (fun i ->
            Shard.submit s ~key:i (fun () ->
                Fiber.await (Backend.call b ~delay:1e-4 (i * 2))))
      in
      List.iteri
        (fun i p ->
          match outcome_of p with
          | Serve.Returned v -> Alcotest.(check int) "routed value" (i * 2) v
          | _ -> Alcotest.fail "shard async request should return")
        ps;
      let st = Shard.drain s in
      Alcotest.(check int) "all completed" n st.Serve.completed;
      Alcotest.(check bool) "conserved (await-aware identity)" true (Shard.conserved s);
      Alcotest.(check int) "suspended zero at drain" 0 st.Serve.suspended)

let tests =
  [
    Alcotest.test_case "promise basics" `Quick promise_basics;
    Alcotest.test_case "promise failure" `Quick promise_failure;
    Alcotest.test_case "inline sched: suspend + fulfil-driven resume" `Quick
      inline_sched_suspends_and_resumes;
    Alcotest.test_case "inline sched: fail discontinues into the body" `Quick
      inline_sched_discontinues_on_fail;
    Alcotest.test_case "inline sched: run of an empty body allocates <= 11 words" `Quick
      inline_sched_run_allocation;
    Alcotest.test_case "pool: await external fulfil (resume inbox)" `Quick
      pool_await_external_fulfil;
    Alcotest.test_case "future: differential fib vs sequential" `Quick future_differential_fib;
    Alcotest.test_case "future: exception propagates through force" `Quick
      future_exception_propagates;
    Alcotest.test_case "future: both runs g inline before force" `Quick
      future_both_evaluation_order;
  ]
  @ work_first_tests
  @ [
    Alcotest.test_case "serve: outcome Returned/Raised" `Quick serve_outcome_returns;
    Alcotest.test_case "serve: outcome deadline -> Cancelled" `Quick
      serve_outcome_deadline_cancelled;
    Alcotest.test_case "serve: outcome shutdown -> Cancelled" `Quick
      serve_outcome_shutdown_cancelled;
    Alcotest.test_case "serve: async admission rejected when draining" `Quick
      serve_try_submit_rejects_when_draining;
    Alcotest.test_case "serve: await blocks under a foreign effect handler" `Quick
      serve_await_blocks_under_foreign_handler;
    Alcotest.test_case "serve: await suspends under Fiber.run" `Quick
      serve_await_suspends_under_fiber_run;
    Alcotest.test_case "serve: extended identity mid-flight + collapse at drain" `Quick
      serve_suspended_identity_midflight;
    Alcotest.test_case "backend simulator basics" `Quick backend_basics;
    Alcotest.test_case "backend lateness: one sample per call, none early" `Quick
      backend_lateness_recorded;
    Alcotest.test_case "counters balance under async load" `Quick
      counters_balance_under_async_load;
    Alcotest.test_case "shard: async admission conserves" `Quick shard_async_conservation;
  ]
