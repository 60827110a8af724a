(* Tests for the serving layer: the injector queue's conservation under
   real multi-domain concurrency, admission control (backpressure,
   deadlines, cancellation), the drain invariant under multi-producer
   stress, and shutdown semantics.  The single-micropool tests run on a
   one-shard server. *)

open Abp_serve
module Serve = Shard.Serve

let with_serve ?processes ?inbox_capacity f =
  let s = Shard.create ?processes ?inbox_capacity ~shards:1 () in
  Fun.protect ~finally:(fun () -> Shard.shutdown s) (fun () -> f s)

(* ------------------------------------------------------------------ *)
(* Injector *)

(* Fill until a push is refused, drain in order, then run three laps of
   interleaved pushes and pops with a window of [3/8 capacity] items in
   flight.  At 1024 slots (four segments) the fill, the drain and every
   lap cross each segment boundary, and the window is wider than a
   segment, so the producer and the consumer work in different
   segments. *)
let injector_fifo ~capacity () =
  let q : int Injector.t = Injector.create ~capacity () in
  Alcotest.(check bool) "empty at start" true (Injector.is_empty q);
  let pushed = ref 0 and popped = ref 0 in
  let push () = if Injector.try_push q !pushed then (incr pushed; true) else false in
  let pop () =
    Alcotest.(check (option int)) "pop in order" (Some !popped) (Injector.try_pop q);
    incr popped
  in
  while push () do () done;
  Alcotest.(check int) "fills to capacity" capacity !pushed;
  Alcotest.(check int) "size at full" capacity (Injector.size q);
  while !popped < !pushed do pop () done;
  Alcotest.(check (option int)) "drained" None (Injector.try_pop q);
  for _ = 1 to 3 * capacity / 8 do
    Alcotest.(check bool) "window push" true (push ())
  done;
  for _ = 1 to 3 * capacity do
    Alcotest.(check bool) "lap push" true (push ());
    pop ()
  done;
  while !popped < !pushed do pop () done;
  Alcotest.(check (option int)) "drained after laps" None (Injector.try_pop q);
  Alcotest.(check bool) "empty at end" true (Injector.is_empty q)

let injector_capacity_rounding () =
  let q : int Injector.t = Injector.create ~capacity:5 () in
  Alcotest.(check int) "rounds up to 8" 8 (Injector.capacity q);
  let tiny : int Injector.t = Injector.create ~capacity:1 () in
  Alcotest.(check int) "minimum 2" 2 (Injector.capacity tiny);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Injector.create: capacity >= 1 required") (fun () ->
      ignore (Injector.create ~capacity:0 () : int Injector.t))

(* Multi-domain conservation: every pushed value is popped exactly once,
   nothing is invented, nothing is lost.  A blocked producer or consumer
   spins briefly, then yields the CPU, so the test also makes progress
   pinned to one CPU.  A queue that stops making progress (a lost slot
   leaves the consumers waiting, a wrong sequence number leaves the
   producers facing a full queue) fails the test after 30 s instead of
   hanging it. *)
let injector_conservation ~capacity ~producers ~consumers ~per_producer () =
  let q : int Injector.t = Injector.create ~capacity () in
  let consumed = Atomic.make 0 and sum = Atomic.make 0 in
  let produced_all = Atomic.make 0 in
  let give_up = Abp_trace.Clock.now () + (30 * Abp_trace.Clock.ns_per_s) in
  let relax tries =
    if tries land 63 = 63 then begin
      if Abp_trace.Clock.now () > give_up then failwith "injector: no progress for 30 s";
      Abp_trace.Clock.yield_cpu ()
    end
    else Domain.cpu_relax ()
  in
  let producer p () =
    for i = 0 to per_producer - 1 do
      let v = (p * per_producer) + i in
      let tries = ref 0 in
      while not (Injector.try_push q v) do
        relax !tries;
        incr tries
      done
    done;
    Atomic.incr produced_all
  in
  let consumer () =
    let rec go tries =
      match Injector.try_pop q with
      | Some v ->
          ignore (Atomic.fetch_and_add sum v);
          ignore (Atomic.fetch_and_add consumed 1);
          go 0
      | None ->
          if Atomic.get produced_all < producers || not (Injector.is_empty q) then begin
            relax tries;
            go (tries + 1)
          end
    in
    go 0
  in
  let ds =
    Array.append
      (Array.init producers (fun p -> Domain.spawn (producer p)))
      (Array.init consumers (fun _ -> Domain.spawn consumer))
  in
  let failures =
    Array.to_list ds |> List.filter_map (fun d -> try Domain.join d; None with e -> Some e)
  in
  (match failures with e :: _ -> raise e | [] -> ());
  (* A consumer may exit on a momentarily-empty queue while the last few
     items are in flight; drain the remainder here. *)
  let rec drain () =
    match Injector.try_pop q with
    | Some v ->
        ignore (Atomic.fetch_and_add sum v);
        ignore (Atomic.fetch_and_add consumed 1);
        drain ()
    | None -> ()
  in
  drain ();
  let n = producers * per_producer in
  Alcotest.(check int) "every value consumed once" n (Atomic.get consumed);
  Alcotest.(check int) "sum conserved" (n * (n - 1) / 2) (Atomic.get sum)

(* The tightest lap: at capacity 2 every slot is reused every other
   item, so each slot's sequence number cycles through all its states
   while two producers and two consumers race on it. *)
let injector_tightest_lap = injector_conservation ~capacity:2 ~producers:2 ~consumers:2 ~per_producer:10_000

(* Both counters count the calling domain's allocations.  The minor
   count is [Gc.minor_words]: [Gc.counters]' own minor count runs short
   on OCaml 5.1 after a minor collection.  The major count is the words
   allocated directly in the major heap (major minus promoted). *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), major -. promoted)

(* [create] allocates the segment directory only, young: a perfbench
   lane of 65 536 slots forces no minor collection (each one stops every
   domain) and allocates nothing directly in the major heap.  An array of
   one young atomic per slot would cost 131 074 direct words and a forced
   collection. *)
let injector_create_is_young () =
  let capacity = 65_536 in
  Gc.minor ();
  let collections () = (Gc.quick_stat ()).Gc.minor_collections in
  let c0 = collections () in
  let minor0, major0 = allocated () in
  let q : int Injector.t = Injector.create ~capacity () in
  let minor1, major1 = allocated () in
  let c1 = collections () in
  ignore (Sys.opaque_identity q);
  Alcotest.(check int) "no minor collection" 0 (c1 - c0);
  Alcotest.(check (float 0.)) "no direct major words" 0. (major1 -. major0);
  if minor1 -. minor0 > 2048. then
    Alcotest.failf "Injector.create allocates %.0f minor words (> 2048)" (minor1 -. minor0)

(* Two producers race to install each of 256 fresh segments in the
   first lap.  With a plain store in place of the install CAS this case
   lost items in eight runs of ten on two CPUs (at 16 384 slots it
   passed five of five); pinned to one CPU the race is rare. *)
let injector_install_race =
  injector_conservation ~capacity:65_536 ~producers:2 ~consumers:2 ~per_producer:50_000

(* The slots are unpadded: a slot costs its plain sequence-number atomic
   (2 words) and its cells in the segment's two arrays, 4 words in all.
   A slot padded to a cache line costs 21 words, 11 MB for one of
   perfbench's 65 536-slot lanes.  Segments exist once tickets have
   passed them, so the bound is checked after one full lap. *)
let injector_lap_words () =
  let capacity = 65_536 in
  let q : int Injector.t = Injector.create ~capacity () in
  for i = 1 to capacity do
    if not (Injector.try_push q i) then Alcotest.failf "push %d refused" i
  done;
  for i = 1 to capacity do
    if Injector.try_pop q <> Some i then Alcotest.failf "pop %d out of order" i
  done;
  let per_slot = float_of_int (Obj.reachable_words (Obj.repr q)) /. float_of_int capacity in
  if per_slot > 5. then Alcotest.failf "a lapped injector holds %.2f words per slot (> 5)" per_slot

(* ------------------------------------------------------------------ *)
(* Serve basics *)

let submit_and_await () =
  with_serve ~processes:3 (fun s ->
      let t = Shard.submit s (fun () -> 6 * 7) in
      (match Serve.await t with
      | Serve.Returned v -> Alcotest.(check int) "value" 42 v
      | _ -> Alcotest.fail "expected Returned");
      let st = Shard.drain s in
      Alcotest.(check int) "accepted" 1 st.Serve.accepted;
      Alcotest.(check int) "completed" 1 st.Serve.completed)

let submitted_task_uses_parallel_skeletons () =
  (* A submitted request runs in worker context: it can fan out over the
     pool with Par/Future and get real stealing. *)
  let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2) in
  with_serve ~processes:4 (fun s ->
      let tickets = List.init 8 (fun i -> Shard.submit s (fun () -> Abp_hood.Par.fib (15 + (i mod 3)))) in
      List.iteri
        (fun i t ->
          match Serve.await t with
          | Serve.Returned v ->
              Alcotest.(check int) (Printf.sprintf "fib of request %d" i) (fib_seq (15 + (i mod 3))) v
          | _ -> Alcotest.fail "expected Returned")
        tickets)

let exceptions_are_contained () =
  let exception Boom in
  with_serve ~processes:2 (fun s ->
      let bad = Shard.submit s (fun () -> raise Boom) in
      let good = Shard.submit s (fun () -> 1) in
      (match Serve.await bad with
      | Serve.Raised Boom -> ()
      | _ -> Alcotest.fail "expected Raised Boom");
      (match Serve.await good with
      | Serve.Returned 1 -> ()
      | _ -> Alcotest.fail "service survived the exception");
      let st = Shard.drain s in
      Alcotest.(check int) "exceptions counted" 1 st.Serve.exceptions;
      Alcotest.(check int) "completion accounting" st.Serve.accepted
        (st.Serve.completed + st.Serve.cancelled + st.Serve.exceptions))

(* Deterministic admission tests run on a single busy worker: the first
   submitted task blocks it, so everything behind queues in the inbox. *)
let with_blocked_worker ?inbox_capacity f =
  with_serve ~processes:1 ?inbox_capacity (fun s ->
      let release = Atomic.make false in
      let blocker =
        Shard.submit s (fun () ->
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done)
      in
      f s ~release ~blocker)

let try_submit_backpressure () =
  with_blocked_worker ~inbox_capacity:2 (fun s ~release ~blocker ->
      (* Wait for the worker to dequeue the blocker, leaving the inbox
         empty with 2 slots. *)
      while (Shard.inbox_depths s).(0) > 0 do
        Domain.cpu_relax ()
      done;
      let a = Shard.try_submit s (fun () -> 1) in
      let b = Shard.try_submit s (fun () -> 2) in
      let c = Shard.try_submit s (fun () -> 3) in
      (match (a, b) with
      | Ok _, Ok _ -> ()
      | _ -> Alcotest.fail "two submissions fit the inbox");
      (match c with
      | Error Serve.Inbox_full -> ()
      | _ -> Alcotest.fail "third submission must be rejected (inbox full)");
      Atomic.set release true;
      (match blocker |> Serve.await with
      | Serve.Returned () -> ()
      | _ -> Alcotest.fail "blocker completes");
      let st = Shard.drain s in
      Alcotest.(check int) "accepted: blocker + 2" 3 st.Serve.accepted;
      Alcotest.(check int) "rejected only when full" 1 st.Serve.rejected;
      Alcotest.(check int) "all accepted completed" 3 st.Serve.completed)

let deadline_drops_queued_task () =
  with_blocked_worker (fun s ~release ~blocker ->
      let doomed = Shard.submit s ~deadline:0.0005 (fun () -> 42) in
      (* Let the deadline lapse while the only worker is still busy. *)
      Unix.sleepf 0.01;
      Atomic.set release true;
      (match Serve.await doomed with
      | Serve.Cancelled Serve.Deadline -> ()
      | Serve.Returned _ -> Alcotest.fail "expired task must not run"
      | _ -> Alcotest.fail "expected Cancelled Deadline");
      ignore (Serve.await blocker);
      let st = Shard.drain s in
      Alcotest.(check int) "cancelled counted" 1 st.Serve.cancelled;
      Alcotest.(check int) "invariant" st.Serve.accepted
        (st.Serve.completed + st.Serve.cancelled + st.Serve.exceptions))

let cancel_before_start () =
  with_blocked_worker (fun s ~release ~blocker ->
      let victim = Shard.submit s (fun () -> 42) in
      Alcotest.(check bool) "cancel wins the race" true (Serve.cancel victim);
      Alcotest.(check bool) "second cancel is a no-op" false (Serve.cancel victim);
      Atomic.set release true;
      (match Serve.await victim with
      | Serve.Cancelled Serve.Explicit -> ()
      | _ -> Alcotest.fail "expected Cancelled Explicit");
      (match Serve.await blocker with
      | Serve.Returned () -> ()
      | _ -> Alcotest.fail "blocker unaffected");
      let st = Shard.drain s in
      Alcotest.(check int) "cancelled" 1 st.Serve.cancelled)

let cancel_after_completion_fails () =
  with_serve ~processes:2 (fun s ->
      let t = Shard.submit s (fun () -> 1) in
      (match Serve.await t with Serve.Returned 1 -> () | _ -> Alcotest.fail "completes");
      Alcotest.(check bool) "too late to cancel" false (Serve.cancel t))

let drain_stops_admission () =
  with_serve ~processes:2 (fun s ->
      let t = Shard.submit s (fun () -> 7) in
      let st = Shard.drain s in
      Alcotest.(check int) "ran the accepted task" 1 st.Serve.completed;
      (match Serve.await t with Serve.Returned 7 -> () | _ -> Alcotest.fail "value");
      (match Shard.try_submit s (fun () -> 8) with
      | Error Serve.Draining -> ()
      | _ -> Alcotest.fail "admission must be closed");
      Alcotest.check_raises "submit raises after drain"
        (Failure "Shard.submit: admission stopped (draining or shut down)") (fun () ->
          ignore (Shard.submit s (fun () -> 9))))

(* Only drain and shutdown stop a multi-shard server's admission, so a
   refusal after drain is final: a keyed and a keyless submission each come
   back [Draining] at once, each counts once in [rejected], and the
   blocking [submit] raises instead of retrying on another shard. *)
let drain_stops_admission_sharded () =
  let s = Shard.create ~processes:1 ~shards:3 () in
  Fun.protect ~finally:(fun () -> Shard.shutdown s) (fun () ->
      let tickets = List.init 6 (fun i -> Shard.submit s (fun () -> i)) in
      let st = Shard.drain s in
      Alcotest.(check int) "ran the accepted tasks" 6 st.Serve.completed;
      List.iter (fun t -> ignore (Serve.await t)) tickets;
      let rejected () = (Shard.stats s).Serve.rejected in
      Alcotest.(check int) "nothing rejected before" 0 (rejected ());
      (match Shard.try_submit s ~key:"k" (fun () -> 0) with
      | Error Serve.Draining -> ()
      | _ -> Alcotest.fail "keyed submission must be refused");
      Alcotest.(check int) "keyed refusal counted once" 1 (rejected ());
      (match Shard.try_submit s (fun () -> 0) with
      | Error Serve.Draining -> ()
      | _ -> Alcotest.fail "keyless submission must be refused");
      Alcotest.(check int) "keyless refusal counted once" 2 (rejected ());
      List.iter
        (fun key ->
          Alcotest.check_raises "submit raises after drain"
            (Failure "Shard.submit: admission stopped (draining or shut down)") (fun () ->
              ignore (Shard.submit s ?key (fun () -> 0))))
        [ Some "k"; None ];
      Alcotest.(check int) "blocking submit does not count" 2 (rejected ());
      Alcotest.(check int) "nothing accepted after drain" 6 (Shard.stats s).Serve.accepted)

(* A request that awaits another request's ticket suspends instead of
   blocking its worker, so even a one-worker server completes both.  The
   poll is bounded: were [await] to block the only worker, the test
   cancels the inner ticket to free it and fails instead of hanging. *)
let await_inside_request_p1 () =
  with_serve ~processes:1 (fun s ->
      let inner = Atomic.make None in
      let outer =
        Shard.submit s (fun () ->
            let tk = Shard.submit s (fun () -> 41) in
            Atomic.set inner (Some tk);
            match Serve.await tk with Serve.Returned v -> v + 1 | _ -> -1)
      in
      let give_up = Unix.gettimeofday () +. 5.0 in
      while Serve.poll outer = None && Unix.gettimeofday () < give_up do
        Unix.sleepf 0.001
      done;
      let settled = Serve.poll outer in
      if settled = None then Option.iter (fun tk -> ignore (Serve.cancel tk)) (Atomic.get inner);
      (match settled with
      | Some (Serve.Returned 42) -> ()
      | Some _ -> Alcotest.fail "nested request settled with the wrong outcome"
      | None -> Alcotest.fail "outer request still pending after 5 s");
      let st = Shard.drain s in
      Alcotest.(check int) "both requests completed" 2 st.Serve.completed)

(* Admission racing drain: submitter domains hammer [try_submit] while
   [drain] runs.  An acceptance either happens before drain reads the
   ledger (and drain waits for it) or is rolled back, so the ledger drain
   returned is final.  Only [rejected] may still grow: the submitters'
   own refusals after drain returned. *)
let drain_races_admission () =
  for _ = 1 to 10 do
    let s = Shard.create ~processes:1 ~inbox_capacity:64 ~shards:1 () in
    let started = Atomic.make 0 in
    let submitter () =
      Atomic.incr started;
      let rec loop () =
        match Shard.try_submit s (fun () -> ()) with
        | Error Serve.Draining -> ()
        | Ok _ | Error Serve.Inbox_full -> loop ()
      in
      loop ()
    in
    let ds = Array.init 2 (fun _ -> Domain.spawn submitter) in
    while Atomic.get started < 2 do
      Domain.cpu_relax ()
    done;
    let st = Shard.drain s in
    Array.iter Domain.join ds;
    let after = Shard.stats s in
    Shard.shutdown s;
    Alcotest.(check bool) "drain's ledger is final" true
      ({ after with Serve.rejected = st.Serve.rejected } = st);
    Alcotest.(check int) "conserved" st.Serve.accepted
      (st.Serve.completed + st.Serve.cancelled + st.Serve.exceptions)
  done

let shutdown_drops_queued_and_is_idempotent () =
  let executed = Atomic.make 0 in
  let s = Shard.create ~processes:1 ~shards:1 () in
  let release = Atomic.make false in
  let started = Atomic.make false in
  let blocker =
    Shard.submit s (fun () ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Atomic.incr executed)
  in
  let queued = List.init 5 (fun i -> Shard.submit s (fun () -> Atomic.incr executed; i)) in
  (* Wait until the worker is actually mid-run on the blocker; otherwise
     shutdown could drop it while it is still queued. *)
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Atomic.set release true;
  (* The blocker is mid-run; shutdown lets it finish, then joins the
     worker and drops whatever it did not get to. *)
  Shard.shutdown s;
  Shard.shutdown s;
  (match Serve.await blocker with
  | Serve.Returned () -> ()
  | _ -> Alcotest.fail "started task ran to completion");
  let st = Shard.stats s in
  Alcotest.(check int) "no task runs after shutdown" st.Serve.completed (Atomic.get executed);
  Alcotest.(check int) "every accepted task reached a terminal state" st.Serve.accepted
    (st.Serve.completed + st.Serve.cancelled + st.Serve.exceptions);
  (* Every queued ticket is resolved: completed before the join, or
     dropped as Shutdown. *)
  List.iter
    (fun t ->
      match Serve.poll t with
      | Some (Serve.Returned _) | Some (Serve.Cancelled Serve.Shutdown) -> ()
      | Some _ -> Alcotest.fail "unexpected terminal state"
      | None -> Alcotest.fail "ticket unresolved after shutdown")
    queued

(* The acceptance-criterion stress: 4 submitting domains race a small
   inbox; after the submitters finish, drain must satisfy
   accepted = completed + cancelled + exceptions, with rejections
   occurring only on a full inbox, and observed per-submitter outcomes
   summing to the service's own counters. *)
let drain_invariant_multi_producer () =
  let s = Shard.create ~processes:4 ~inbox_capacity:16 ~shards:1 () in
  let submitters = 4 and per_submitter = 500 in
  let observed_accepted = Atomic.make 0 and observed_rejected = Atomic.make 0 in
  let executed = Atomic.make 0 in
  let submitter d () =
    let tickets = ref [] in
    for i = 0 to per_submitter - 1 do
      match
        Shard.try_submit s (fun () ->
            Atomic.incr executed;
            (d * per_submitter) + i)
      with
      | Ok t ->
          Atomic.incr observed_accepted;
          tickets := t :: !tickets
      | Error Serve.Inbox_full -> Atomic.incr observed_rejected
      | Error Serve.Draining -> Alcotest.fail "admission closed during the stress"
    done;
    (* Every accepted ticket resolves. *)
    List.iter (fun t -> ignore (Serve.await t)) !tickets
  in
  let ds = Array.init submitters (fun d -> Domain.spawn (submitter d)) in
  Array.iter Domain.join ds;
  let st = Shard.drain s in
  Alcotest.(check int) "accepted matches submitters' view" (Atomic.get observed_accepted)
    st.Serve.accepted;
  Alcotest.(check int) "rejected matches submitters' view" (Atomic.get observed_rejected)
    st.Serve.rejected;
  Alcotest.(check int) "drain invariant: accepted = completed + cancelled + exceptions"
    st.Serve.accepted
    (st.Serve.completed + st.Serve.cancelled + st.Serve.exceptions);
  Alcotest.(check int) "nothing cancelled without deadlines" 0 st.Serve.cancelled;
  Alcotest.(check int) "every completed task actually ran" st.Serve.completed
    (Atomic.get executed);
  Shard.shutdown s;
  Alcotest.(check int) "no task runs after shutdown" st.Serve.completed (Atomic.get executed)

let contains s affix =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let telemetry_counts_injection () =
  let sink = Abp_trace.Sink.create ~workers:2 () in
  let s = Shard.create ~processes:2 ~traces:[| sink |] ~shards:1 () in
  let tickets = List.init 50 (fun i -> Shard.submit s (fun () -> i * i)) in
  List.iter (fun t -> ignore (Serve.await t)) tickets;
  ignore (Shard.drain s);
  Shard.shutdown s;
  let totals = Abp_trace.Sink.totals sink in
  Alcotest.(check bool) "all tasks entered through the injector" true
    (Abp_trace.Counters.(get totals inject_tasks) = 50);
  Alcotest.(check bool) "acquisitions never exceed polls" true
    Abp_trace.Counters.(get totals inject_polls >= get totals inject_tasks);
  let report = Format.asprintf "%a" Shard.pp_report s in
  Alcotest.(check bool) "high-water gauge saw traffic" false (contains report "high-water 0,")

let report_renders () =
  with_serve ~processes:2 (fun s ->
      let tickets = List.init 20 (fun i -> Shard.submit s (fun () -> i)) in
      List.iter (fun t -> ignore (Serve.await t)) tickets;
      let text = Format.asprintf "%a" Shard.pp_report s in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " present") true (contains text needle))
        [ "shard report"; "accepted"; "inbox"; "queue latency"; "run latency"; "bulk sojourn" ])

(* ------------------------------------------------------------------ *)
(* Shard: the sharded multi-pool topology *)

(* ------------------------------------------------------------------ *)
(* Lanes *)

(* A key routing to shard [want]. *)
let key_for s want =
  let rec go k =
    if k > 10_000 then Alcotest.fail "no key found for shard"
    else if Shard.shard_of_key s k = want then k
    else go (k + 1)
  in
  go 0

(* The lanes partition the ledger.  Every worker of [shards] shards
   (two workers in all) is pinned by a blocker while shard 0 queues a
   mix on both lanes: completions, exceptions, explicit cancels and
   expired deadlines.  The worker outside shard 0 is released first, so
   with two shards part of the mix runs through cross steals (the
   second blocker already did).  After [drain] and again after
   [shutdown], each lane's counters match the mix, each shard's totals
   are the sums of its lanes, and the server's totals the sums of the
   server's lanes. *)
let lane_conservation_and_latency ~shards () =
  let s = Shard.create ~processes:(2 / shards) ~shards () in
  Fun.protect ~finally:(fun () -> Shard.shutdown s) (fun () ->
      let key = key_for s 0 in
      let home = Serve.pool (Shard.serve s 0) in
      let started = Atomic.make 0 in
      (* A blocker notes whether it runs on a shard-0 worker. *)
      let blocker () =
        let release = Atomic.make false and at_home = Atomic.make false in
        ignore
          (Shard.submit s ~key (fun () ->
               (match Abp_hood.Worker.self_pool () with
               | Some p -> Atomic.set at_home (p == home)
               | None -> ());
               Atomic.incr started;
               while not (Atomic.get release) do
                 Domain.cpu_relax ()
               done));
        (release, at_home)
      in
      let a = blocker () in
      let b = blocker () in
      Alcotest.(check bool) "both workers pinned" true
        (Test_util.wait_until (fun () -> Atomic.get started = 2));
      let n = 200 in
      let lane_of i = if i mod 4 = 0 then (Serve.Deadline : Serve.lane) else Serve.Bulk in
      let tks =
        List.init n (fun i ->
            let lane = lane_of i in
            match i mod 5 with
            | 0 ->
                let tk = Shard.submit s ~key ~lane (fun () -> i) in
                Alcotest.(check bool) "cancel a queued request" true (Serve.cancel tk);
                tk
            | 1 -> Shard.submit s ~key ~lane (fun () -> raise Exit)
            | 2 -> Shard.submit s ~key ~lane ~deadline:1e-9 (fun () -> i)
            | _ -> Shard.submit s ~key ~lane (fun () -> i))
      in
      (* Release the worker outside shard 0 (either one on one shard),
         let it settle part of the mix, then release the other. *)
      let first, second = if Atomic.get (snd a) then (b, a) else (a, b) in
      Atomic.set (fst first) true;
      let not_cancelled = List.filteri (fun i _ -> i mod 5 <> 0) tks in
      Alcotest.(check bool) "part of the mix settles beside a pinned worker" true
        (Test_util.wait_until (fun () -> List.exists (fun tk -> Serve.poll tk <> None) not_cancelled));
      Atomic.set (fst second) true;
      let check_ledger what (st : Serve.stats) =
        (* each lane counts the kinds of its own requests *)
        let expect lane kinds =
          List.length (List.filteri (fun i _ -> lane_of i = lane && List.mem (i mod 5) kinds) tks)
        in
        List.iter
          (fun lane ->
            let ls = Shard.lane_stats s lane in
            let blockers = if lane = Serve.Bulk then 2 else 0 in
            let name = what ^ ": " ^ Serve.lane_name lane in
            Alcotest.(check int) (name ^ " accepted") (expect lane [ 0; 1; 2; 3; 4 ] + blockers)
              ls.Serve.lane_accepted;
            Alcotest.(check int) (name ^ " completed") (expect lane [ 3; 4 ] + blockers)
              ls.Serve.lane_completed;
            Alcotest.(check int) (name ^ " exceptions") (expect lane [ 1 ]) ls.Serve.lane_exceptions;
            Alcotest.(check int) (name ^ " cancelled") (expect lane [ 0; 2 ])
              ls.Serve.lane_cancelled)
          Serve.lanes;
        (* the lanes partition each shard's totals and the server's *)
        let partition name (st : Serve.stats) lane_stats =
          let sum f = List.fold_left (fun acc lane -> acc + f (lane_stats lane)) 0 Serve.lanes in
          Alcotest.(check (list int))
            (what ^ ": lanes partition " ^ name)
            [ st.accepted; st.completed; st.rejected; st.cancelled; st.exceptions ]
            [
              sum (fun l -> l.Serve.lane_accepted);
              sum (fun l -> l.Serve.lane_completed);
              sum (fun l -> l.Serve.lane_rejected);
              sum (fun l -> l.Serve.lane_cancelled);
              sum (fun l -> l.Serve.lane_exceptions);
            ]
        in
        for i = 0 to shards - 1 do
          let sv = Shard.serve s i in
          partition (Printf.sprintf "shard %d" i) (Serve.stats sv) (Serve.lane_stats sv)
        done;
        partition "the server" (Shard.stats s) (Shard.lane_stats s);
        Alcotest.(check bool) (what ^ ": result is the server's totals") true (st = Shard.stats s);
        Alcotest.(check bool) (what ^ ": conserved") true (Shard.conserved s)
      in
      check_ledger "drain" (Shard.drain s);
      List.iteri
        (fun i tk ->
          let ok =
            match (i mod 5, Serve.poll tk) with
            | 0, Some (Serve.Cancelled Serve.Explicit)
            | 1, Some (Serve.Raised Exit)
            | 2, Some (Serve.Cancelled Serve.Deadline) ->
                true
            | (3 | 4), Some (Serve.Returned v) -> v = i
            | _ -> false
          in
          Alcotest.(check bool) (Printf.sprintf "request %d settled as its kind says" i) true ok)
        tks;
      if shards > 1 then
        Alcotest.(check bool) "cross steals moved work" true (Shard.cross_shard_steals s > 0);
      (* per-lane latency recorded for every settled request *)
      List.iter
        (fun lane ->
          let ls = Shard.lane_stats s lane in
          match Shard.lane_sojourn_latency s lane with
          | Some l ->
              Alcotest.(check int)
                (Serve.lane_name lane ^ " sojourn samples")
                (ls.Serve.lane_completed + ls.Serve.lane_exceptions)
                l.Serve.samples;
              Alcotest.(check bool) "p999 >= p50" true (l.Serve.p999 >= l.Serve.p50)
          | None -> Alcotest.fail "both lanes have sojourn latency")
        Serve.lanes;
      Shard.shutdown s;
      check_ledger "shutdown" (Shard.stats s))

let deadline_lane_runs_first () =
  (* With the single worker blocked, queue eight bulk tasks, then four
     deadline tasks whose deadlines run in reverse submission order.
     Each arbiter poll takes one task: the deadline lane first, FIFO
     within the lane (the deadlines do not reorder it), except that
     after three deadline polls with bulk waiting the anti-starvation
     credit lets one bulk task through. *)
  with_blocked_worker (fun s ~release ~blocker ->
      while (Shard.inbox_depths s).(0) > 0 do
        Domain.cpu_relax ()
      done;
      let order = Atomic.make [] in
      let note tag () = Atomic.set order (tag :: Atomic.get order) in
      for i = 0 to 7 do
        ignore (Shard.submit s (note (Printf.sprintf "b%d" i)))
      done;
      Alcotest.(check int) "bulk tasks queued" 8 (Shard.inbox_depths s).(0);
      for i = 0 to 3 do
        ignore
          (Shard.submit s ~lane:Serve.Deadline
             ~deadline:(float_of_int (40 - (10 * i)))
             (note (Printf.sprintf "d%d" i)))
      done;
      Alcotest.(check int) "deadline tasks queued beside them" 12 (Shard.inbox_depths s).(0);
      Atomic.set release true;
      (match Serve.await blocker with
      | Serve.Returned () -> ()
      | _ -> Alcotest.fail "blocker completes");
      ignore (Shard.drain s);
      let ran = List.rev (Atomic.get order) in
      let pos tag = Option.get (List.find_index (String.equal tag) ran) in
      Alcotest.(check string) "the deadline lane runs first" "d0" (List.hd ran);
      Alcotest.(check bool) "FIFO within the deadline lane" true
        (pos "d0" < pos "d1" && pos "d1" < pos "d2" && pos "d2" < pos "d3");
      Alcotest.(check bool) "the bulk credit lets bulk through" true (pos "b0" < pos "d3");
      Alcotest.(check (list string))
        "one task per poll: three deadline, one bulk, the last deadline, then bulk"
        [ "d0"; "d1"; "d2"; "b0"; "d3"; "b1"; "b2"; "b3"; "b4"; "b5"; "b6"; "b7" ]
        ran)

let bulk_lane_runs_fifo () =
  (* With the single worker blocked and the deadline lane empty, each
     arbiter poll takes the oldest bulk task. *)
  with_blocked_worker (fun s ~release ~blocker ->
      while (Shard.inbox_depths s).(0) > 0 do
        Domain.cpu_relax ()
      done;
      let order = Atomic.make [] in
      let note tag () = Atomic.set order (tag :: Atomic.get order) in
      let tags = List.init 8 (Printf.sprintf "b%d") in
      List.iter (fun tag -> ignore (Shard.submit s (note tag))) tags;
      Atomic.set release true;
      (match Serve.await blocker with
      | Serve.Returned () -> ()
      | _ -> Alcotest.fail "blocker completes");
      ignore (Shard.drain s);
      Alcotest.(check (list string)) "submission order" tags (List.rev (Atomic.get order)))

let with_shard ?processes ?inbox_capacity ~shards f =
  let s = Shard.create ?processes ?inbox_capacity ~shards () in
  Fun.protect ~finally:(fun () -> Shard.shutdown s) (fun () -> f s)

let shard_create_validation () =
  Alcotest.check_raises "shards = 0 rejected" (Invalid_argument "Shard.create: shards >= 1 required")
    (fun () -> ignore (Shard.create ~shards:0 ()));
  Alcotest.check_raises "processes = 0 rejected"
    (Invalid_argument "Shard.create: processes >= 1 required") (fun () ->
      ignore (Shard.create ~processes:0 ~shards:2 ()));
  Alcotest.check_raises "traces length mismatch rejected"
    (Invalid_argument "Shard.create: traces must have one entry per shard") (fun () ->
      ignore (Shard.create ~shards:2 ~traces:[| Abp_trace.Sink.create ~workers:1 () |] ()));
  (* The cross-shard steal entry point validates its victim. *)
  with_shard ~processes:1 ~shards:1 (fun s ->
      let pool = Serve.pool (Shard.serve s 0) in
      List.iter
        (fun victim ->
          Alcotest.check_raises
            (Printf.sprintf "steal_from victim %d rejected" victim)
            (Invalid_argument "Pool.steal_from: victim out of range")
            (fun () -> ignore (Abp_hood.Pool.steal_from pool ~victim)))
        [ 1; -1 ];
      Alcotest.(check bool) "an idle in-range victim yields nothing" true
        (Option.is_none (Abp_hood.Pool.steal_from pool ~victim:0)))

let shard_routing_is_stable () =
  with_shard ~processes:1 ~shards:4 (fun s ->
      Alcotest.(check int) "shards" 4 (Shard.shards s);
      Alcotest.(check int) "size" 4 (Shard.size s);
      (* shard_of_key is a pure function of the key. *)
      List.iter
        (fun k ->
          let i = Shard.shard_of_key s k in
          Alcotest.(check bool) "in range" true (i >= 0 && i < 4);
          Alcotest.(check int) (Printf.sprintf "key %d stable" k) i (Shard.shard_of_key s k))
        [ 0; 1; 17; 12345; -3 ];
      (* Keyed submissions land on exactly the shard the key hashes to. *)
      let key = "client-7" in
      let home = Shard.shard_of_key s key in
      let tickets = List.init 12 (fun i -> Shard.submit s ~key (fun () -> i)) in
      List.iter (fun t -> ignore (Serve.await t)) tickets;
      ignore (Shard.drain s);
      let routes = Shard.route_counts s in
      Alcotest.(check int) "all keyed requests on the home shard" 12 routes.(home);
      Array.iteri
        (fun i n -> if i <> home then Alcotest.(check int) "other shards untouched" 0 n)
        routes)

let shard_round_robin_spreads () =
  with_shard ~processes:1 ~shards:3 (fun s ->
      let tickets = List.init 30 (fun i -> Shard.submit s (fun () -> i)) in
      List.iter (fun t -> ignore (Serve.await t)) tickets;
      ignore (Shard.drain s);
      let routes = Shard.route_counts s in
      Alcotest.(check int) "route histogram sums to accepted" 30
        (Array.fold_left ( + ) 0 routes);
      Array.iteri
        (fun i n ->
          Alcotest.(check bool) (Printf.sprintf "shard %d saw traffic" i) true (n > 0))
        routes)

let shard_single_degenerates_to_serve () =
  with_shard ~processes:2 ~shards:1 (fun s ->
      let tickets = List.init 40 (fun i -> Shard.submit s (fun () -> i * i)) in
      List.iter (fun t -> ignore (Serve.await t)) tickets;
      let st = Shard.drain s in
      Alcotest.(check int) "completed" 40 st.Serve.completed;
      Alcotest.(check bool) "conserved" true (Shard.conserved s);
      Alcotest.(check int) "no remote source: zero cross polls" 0 (Shard.cross_polls s);
      Alcotest.(check int) "zero cross steals" 0 (Shard.cross_shard_steals s))

(* The multi-domain stress: submitting domains race keyed and keyless
   traffic onto a skewed k-shard group; cross-shard stealing moves work,
   yet every shard's own conservation invariant holds and each
   cross-shard acquisition moves exactly one task. *)
let shard_conservation_multi_domain () =
  let shards = 3 in
  let s = Shard.create ~processes:2 ~inbox_capacity:32 ~shards () in
  let submitters = 4 and per_submitter = 300 in
  let executed = Atomic.make 0 in
  let ds =
    Array.init submitters (fun d ->
        Domain.spawn (fun () ->
            let tickets = ref [] in
            for i = 0 to per_submitter - 1 do
              (* Skew: three quarters of the traffic is keyed to ONE hot
                 key (a single home shard), the rest keyless — the hot
                 shard overflows and siblings must cross-steal. *)
              let key = if i mod 4 < 3 then Some "hot" else None in
              let t = Shard.submit s ?key (fun () -> Atomic.incr executed; (d, i)) in
              tickets := t :: !tickets
            done;
            List.iter (fun t -> ignore (Serve.await t)) !tickets))
  in
  Array.iter Domain.join ds;
  let st = Shard.drain s in
  let n = submitters * per_submitter in
  Alcotest.(check int) "all submissions accepted (blocking submit)" n st.Serve.accepted;
  Alcotest.(check int) "all completed" n st.Serve.completed;
  Alcotest.(check int) "every completed task ran" n (Atomic.get executed);
  Alcotest.(check bool) "per-shard conservation" true (Shard.conserved s);
  let steals = Shard.cross_shard_steals s in
  Alcotest.(check bool) "steals <= polls" true (steals <= Shard.cross_polls s);
  Alcotest.(check int) "one task per cross steal" steals (Shard.cross_stolen_tasks s);
  Alcotest.(check int) "route histogram sums to accepted" n
    (Array.fold_left ( + ) 0 (Shard.route_counts s));
  Shard.shutdown s

let shard_shutdown_resolves_every_ticket () =
  let s = Shard.create ~processes:1 ~shards:2 () in
  let release = Atomic.make false and started = Atomic.make 0 in
  (* Block both shards' single workers so later submissions stay queued. *)
  let blockers =
    List.init 2 (fun i ->
        Shard.submit s ~key:(string_of_int i) (fun () ->
            Atomic.incr started;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  let queued = List.init 6 (fun i -> Shard.submit s (fun () -> i)) in
  Atomic.set release true;
  Shard.shutdown s;
  Shard.shutdown s;
  List.iter
    (fun t ->
      match Serve.await t with
      | Serve.Returned () -> ()
      | _ -> Alcotest.fail "blocker completed")
    blockers;
  List.iter
    (fun t ->
      match Serve.poll t with
      | Some (Serve.Returned _) | Some (Serve.Cancelled Serve.Shutdown) -> ()
      | Some _ -> Alcotest.fail "unexpected terminal state"
      | None -> Alcotest.fail "ticket unresolved after shutdown")
    queued;
  Alcotest.(check bool) "conserved after shutdown" true (Shard.conserved s);
  (match Shard.try_submit s (fun () -> 0) with
  | Error Serve.Draining -> ()
  | _ -> Alcotest.fail "admission closed after shutdown");
  Alcotest.check_raises "submit raises after shutdown"
    (Failure "Shard.submit: admission stopped (draining or shut down)") (fun () ->
      ignore (Shard.submit s (fun () -> 0)))

let shard_report_renders () =
  with_shard ~processes:1 ~shards:2 (fun s ->
      let tickets = List.init 10 (fun i -> Shard.submit s (fun () -> i)) in
      List.iter (fun t -> ignore (Serve.await t)) tickets;
      ignore (Shard.drain s);
      let text = Format.asprintf "%a" Shard.pp_report s in
      List.iter
        (fun needle -> Alcotest.(check bool) (needle ^ " present") true (contains text needle))
        [ "shard report"; "cross"; "shard 0"; "shard 1" ])

let shard_lane_passthrough () =
  with_shard ~processes:1 ~shards:2 (fun t ->
      let n = 120 in
      let ps =
        List.init n (fun i ->
            let lane = if i mod 3 = 0 then (Serve.Deadline : Serve.lane) else Serve.Bulk in
            Serve.outcome (Shard.submit t ~key:i ~lane (fun () -> i)))
      in
      List.iter
        (fun p ->
          (* external domain: poll rather than perform Await *)
          let rec wait () =
            match Abp_fiber.Fiber.Promise.try_await p with
            | Some o -> o
            | None ->
                Domain.cpu_relax ();
                wait ()
          in
          match wait () with
          | Serve.Returned _ -> ()
          | _ -> Alcotest.fail "sharded lane submission completes")
        ps;
      ignore (Shard.drain t);
      let dl = Shard.lane_stats t Serve.Deadline and bulk = Shard.lane_stats t Serve.Bulk in
      Alcotest.(check int) "deadline accepted across shards" ((n + 2) / 3)
        dl.Serve.lane_accepted;
      Alcotest.(check int) "bulk accepted across shards" (n - ((n + 2) / 3))
        bulk.Serve.lane_accepted;
      (* merged-across-shards histogram covers every settled request *)
      let h = Shard.lane_sojourn_hist t Serve.Deadline in
      Alcotest.(check int) "merged deadline histogram count" dl.Serve.lane_completed
        (Abp_stats.Log_histogram.count h);
      match Shard.lane_sojourn_latency t Serve.Deadline with
      | Some l ->
          Alcotest.(check int) "sharded lane latency samples" dl.Serve.lane_completed
            l.Serve.samples
      | None -> Alcotest.fail "sharded deadline latency present")

(* An idle sibling relieves a pinned shard's deadline lane before its
   bulk lane.  Both single workers are pinned first, each by its own
   blocker: the first blocker's worker is found as in
   [cross_steals_drain_pinned_shard], and the second blocker can then
   only run on the other worker.  Bulk jobs and then deadline jobs queue
   on the first worker's shard; once the second blocker is released, its
   worker can reach them only through its cross-shard take, so the
   recorded order is the order that take chose them in. *)
let cross_steals_take_deadline_before_bulk () =
  let topo = Shard.create ~processes:1 ~shards:2 () in
  let release = Array.init 2 (fun _ -> Atomic.make false) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun r -> Atomic.set r true) release;
      Shard.shutdown topo)
    (fun () ->
      let started = Atomic.make 0 in
      let block i key =
        Shard.submit topo ~key (fun () ->
            Atomic.incr started;
            while not (Atomic.get release.(i)) do
              Domain.cpu_relax ()
            done)
      in
      let pinner = block 0 (key_for topo 0) in
      Alcotest.(check bool) "first blocker running" true
        (Test_util.wait_until (fun () -> Atomic.get started = 1));
      let pinned = if Shard.cross_shard_steals topo = 0 then 0 else 1 in
      let sibling = block 1 (key_for topo (1 - pinned)) in
      Alcotest.(check bool) "second blocker running" true
        (Test_util.wait_until (fun () -> Atomic.get started = 2));
      let order = Atomic.make [] in
      let note tag () = Atomic.set order (tag :: Atomic.get order) in
      let bulk = List.init 6 (Printf.sprintf "b%d") and deadline = List.init 6 (Printf.sprintf "d%d") in
      let key = key_for topo pinned in
      List.iter (fun tag -> ignore (Shard.submit topo ~key (note tag))) bulk;
      List.iter (fun tag -> ignore (Shard.submit topo ~key ~lane:Serve.Deadline (note tag))) deadline;
      Atomic.set release.(1) true;
      ignore (Serve.await sibling);
      Alcotest.(check bool) "the sibling ran every queued job" true
        (Test_util.wait_until (fun () -> List.length (Atomic.get order) = 12));
      Alcotest.(check (list string)) "every deadline job before any bulk job" (deadline @ bulk)
        (List.rev (Atomic.get order));
      Atomic.set release.(0) true;
      ignore (Serve.await pinner);
      ignore (Shard.drain topo);
      Alcotest.(check bool) "conserved" true (Shard.conserved topo))

(* A request that settles past its deadline is counted as a miss (it
   still completes — a miss is settled-but-late, not a conservation
   term). *)
let deadline_miss_counted () =
  let s = Shard.create ~processes:1 ~shards:1 () in
  let t = Shard.submit s ~lane:Serve.Deadline ~deadline:0.05 (fun () -> Unix.sleepf 0.1) in
  (match Serve.await t with
  | Serve.Returned () -> ()
  | _ -> Alcotest.fail "late request should still complete");
  let ls = Shard.lane_stats s Serve.Deadline in
  Alcotest.(check bool) "miss recorded" true (ls.Serve.lane_misses >= 1);
  Alcotest.(check int) "still conserved: completed" 1 ls.Serve.lane_completed;
  let st = Shard.drain s in
  Alcotest.(check int) "accepted" 1 st.Serve.accepted;
  Shard.shutdown s

(* Cross-shard relief moves one job per steal.  Shard 0's only worker
   is pinned by a blocker (if the idle sibling happened to steal the
   blocker, the roles swap and the jobs go to shard 1), and [n] jobs
   queued on the pinned shard's [lane] can only run through the idle
   sibling's cross-shard take, which tries the deadline lane, the pinned
   worker's empty deque and the bulk lane on each trip.  Each such steal
   is counted once, moves exactly one job and emits one [Cross] event
   with no subject. *)
let cross_steals_drain_pinned_shard lane () =
  let sinks = Array.init 2 (fun _ -> Abp_trace.Sink.create ~ring_capacity:4096 ~workers:1 ()) in
  let topo = Shard.create ~processes:1 ~traces:sinks ~shards:2 () in
  Fun.protect
    ~finally:(fun () -> Shard.shutdown topo)
    (fun () ->
      let release = Atomic.make false and started = Atomic.make false in
      let blocker =
        Shard.submit topo ~key:(key_for topo 0) (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done)
      in
      Alcotest.(check bool) "blocker running" true (Test_util.wait_until (fun () -> Atomic.get started));
      (* The steal that moved the blocker, if any, was counted before the
         blocker ran. *)
      let blocker_stolen = Shard.cross_shard_steals topo in
      let pinned = if blocker_stolen = 0 then 0 else 1 in
      let key = key_for topo pinned in
      let n = 12 in
      let ran = Atomic.make 0 in
      for _ = 1 to n do
        ignore (Shard.submit topo ~key ~lane (fun () -> Atomic.incr ran))
      done;
      Alcotest.(check bool) "every job ran while its home worker was pinned" true
        (Test_util.wait_until (fun () -> Atomic.get ran = n));
      Atomic.set release true;
      ignore (Serve.await blocker);
      ignore (Shard.drain topo);
      Alcotest.(check bool) "conserved" true (Shard.conserved topo);
      let steals = Shard.cross_shard_steals topo in
      Alcotest.(check int) "one cross steal per relieved job" (n + blocker_stolen) steals;
      Alcotest.(check int) "one task per cross steal" steals (Shard.cross_stolen_tasks topo);
      (* The blocker is a bulk job too. *)
      let blockers = if lane = Serve.Bulk then 1 else 0 in
      Alcotest.(check int) "the lane completed every job" (n + blockers)
        (Shard.lane_stats topo lane).Serve.lane_completed);
  let cross =
    Array.to_list sinks
    |> List.concat_map Abp_trace.Sink.events
    |> List.filter (fun e -> e.Abp_trace.Event.kind = Abp_trace.Event.Cross)
  in
  Alcotest.(check int) "one Cross event per steal" (Shard.cross_shard_steals topo)
    (List.length cross);
  Alcotest.(check bool) "Cross events carry no subject" true
    (List.for_all (fun e -> e.Abp_trace.Event.arg = -1) cross)

module Promise = Abp_fiber.Fiber.Promise

(* The value [t] settled with, waiting at most [wait_until]'s timeout,
   so a continuation that never resumes fails the test instead of
   hanging it. *)
let settled_value what t =
  if not (Test_util.wait_until (fun () -> Serve.poll t <> None)) then
    Alcotest.failf "%s still pending after 30 s" what;
  match Serve.poll t with
  | Some (Serve.Returned v) -> v
  | _ -> Alcotest.failf "%s settled with the wrong outcome" what

(* A request parked on a promise that a non-pool domain (here the test's
   own) fulfils comes back through its home shard's resume inbox, the
   only way back for an off-pool wake: the value arrives, the home
   shard's [suspended] gauge returns to 0 and the group is conserved. *)
let shard_offpool_fulfil_resumes_at_home () =
  let s = Shard.create ~processes:1 ~shards:2 () in
  Fun.protect ~finally:(fun () -> Shard.shutdown s) (fun () ->
      let home = 0 in
      let key = key_for s home in
      let suspended i = (Serve.stats (Shard.serve s i)).Serve.suspended in
      let pr : int Promise.t = Promise.create () in
      let t = Shard.submit s ~key (fun () -> Abp_fiber.Fiber.await pr + 1) in
      Alcotest.(check bool) "request parked on its home shard" true
        (Test_util.wait_until (fun () -> suspended home = 1));
      Alcotest.(check int) "nothing parked on the other shard" 0 (suspended (1 - home));
      Promise.fulfil pr 41;
      Alcotest.(check int) "awaiter got the value" 42 (settled_value "parked request" t);
      let st = Shard.drain s in
      Alcotest.(check int) "completed" 1 st.Serve.completed;
      Alcotest.(check int) "nothing left suspended" 0 (suspended home);
      Alcotest.(check bool) "conserved" true (Shard.conserved s))

(* A request parked on a promise that another request, routed to the
   other shard, fulfils: the fulfilling worker, whichever shard it
   belongs to, takes the continuation onto its own deque, and the
   parked request's home shard still settles it. *)
let shard_worker_fulfil_resumes_parked_request () =
  let s = Shard.create ~processes:1 ~shards:2 () in
  Fun.protect ~finally:(fun () -> Shard.shutdown s) (fun () ->
      let ka = key_for s 0 and kb = key_for s 1 in
      let suspended i = (Serve.stats (Shard.serve s i)).Serve.suspended in
      let pr : int Promise.t = Promise.create () in
      let waiter = Shard.submit s ~key:ka (fun () -> Abp_fiber.Fiber.await pr * 2) in
      Alcotest.(check bool) "waiter parked on shard 0" true
        (Test_util.wait_until (fun () -> suspended 0 = 1));
      let fulfiller =
        Shard.submit s ~key:kb (fun () ->
            Promise.fulfil pr 21;
            0)
      in
      Alcotest.(check int) "fulfiller returned" 0 (settled_value "fulfiller" fulfiller);
      Alcotest.(check int) "waiter got the value" 42 (settled_value "parked request" waiter);
      let st = Shard.drain s in
      Alcotest.(check int) "both completed" 2 st.Serve.completed;
      Alcotest.(check int) "nothing left suspended" 0 st.Serve.suspended;
      Alcotest.(check (array int)) "one request routed to each shard" [| 1; 1 |]
        (Shard.route_counts s);
      Alcotest.(check bool) "conserved" true (Shard.conserved s))

(* Every settled request leaves exactly one sojourn sample, wherever it
   ran.  All traffic is keyed to shard 0, so shard 1's worker runs a
   share of it through cross steals; a latency slot written by two
   workers at once would lose samples. *)
let sojourn_samples_survive_cross_steals () =
  for _ = 1 to 25 do
    let s = Shard.create ~processes:1 ~shards:2 () in
    Fun.protect ~finally:(fun () -> Shard.shutdown s) (fun () ->
        let key = key_for s 0 in
        let tickets = Array.init 20_000 (fun i -> Shard.submit s ~key (fun () -> i)) in
        Array.iter (fun t -> ignore (Serve.await t)) tickets;
        ignore (Shard.drain s);
        let ls = Shard.lane_stats s Serve.Bulk in
        Alcotest.(check int) "one sojourn sample per completed request" ls.Serve.lane_completed
          (Abp_stats.Log_histogram.count (Shard.lane_sojourn_hist s Serve.Bulk)))
  done

let tests =
  [
    Alcotest.test_case "injector: fifo + full + wraparound" `Quick (injector_fifo ~capacity:8);
    Alcotest.test_case "injector: capacity rounding" `Quick injector_capacity_rounding;
    Alcotest.test_case "injector: mpmc conservation (domains)" `Quick
      (injector_conservation ~capacity:64 ~producers:3 ~consumers:2 ~per_producer:5_000);
    Alcotest.test_case "injector: tightest lap, 2 producers x 2 consumers at capacity 2" `Quick
      injector_tightest_lap;
    Alcotest.test_case "injector: at most 5 words per slot after one lap" `Quick injector_lap_words;
    Alcotest.test_case "injector: create is young, forces no minor GC" `Quick injector_create_is_young;
    Alcotest.test_case "injector: fifo + full + wraparound across segments" `Quick
      (injector_fifo ~capacity:1024);
    Alcotest.test_case "injector: 2 producers x 2 consumers race to install segments" `Quick
      injector_install_race;
    Alcotest.test_case "submit and await" `Quick submit_and_await;
    Alcotest.test_case "submitted tasks use Par/Future" `Quick
      submitted_task_uses_parallel_skeletons;
    Alcotest.test_case "exceptions contained + counted" `Quick exceptions_are_contained;
    Alcotest.test_case "try_submit backpressure (full inbox)" `Quick try_submit_backpressure;
    Alcotest.test_case "deadline drops queued task" `Quick deadline_drops_queued_task;
    Alcotest.test_case "cancel before start" `Quick cancel_before_start;
    Alcotest.test_case "cancel after completion fails" `Quick cancel_after_completion_fails;
    Alcotest.test_case "drain stops admission" `Quick drain_stops_admission;
    Alcotest.test_case "drain stops admission on 3 shards: refusal is final" `Quick
      drain_stops_admission_sharded;
    Alcotest.test_case "await inside a request at P = 1 completes" `Quick
      await_inside_request_p1;
    Alcotest.test_case "drain races admission: ledger is final" `Quick drain_races_admission;
    Alcotest.test_case "shutdown drops queued, idempotent" `Quick
      shutdown_drops_queued_and_is_idempotent;
    Alcotest.test_case "drain invariant under 4-domain stress" `Quick
      drain_invariant_multi_producer;
    Alcotest.test_case "telemetry: inject counters" `Quick telemetry_counts_injection;
    Alcotest.test_case "report renders" `Quick report_renders;
    Alcotest.test_case "lanes: conservation + per-lane latency" `Quick
      (lane_conservation_and_latency ~shards:1);
    Alcotest.test_case "lanes: deadline lane runs first, FIFO within the lane" `Quick
      deadline_lane_runs_first;
    Alcotest.test_case "lanes: bulk lane runs FIFO" `Quick bulk_lane_runs_fifo;
    Alcotest.test_case "shard: create validation" `Quick shard_create_validation;
    Alcotest.test_case "shard: keyed routing is stable" `Quick shard_routing_is_stable;
    Alcotest.test_case "shard: round-robin spreads" `Quick shard_round_robin_spreads;
    Alcotest.test_case "shard: k=1 degenerates to serve" `Quick shard_single_degenerates_to_serve;
    Alcotest.test_case "shard: conservation + cross bounds under 4-domain skew" `Quick
      shard_conservation_multi_domain;
    Alcotest.test_case "shard: shutdown resolves every ticket" `Quick
      shard_shutdown_resolves_every_ticket;
    Alcotest.test_case "shard: report renders" `Quick shard_report_renders;
    Alcotest.test_case "shard: lane passthrough + merged lane latency" `Quick
      shard_lane_passthrough;
    Alcotest.test_case "shard: cross steals take deadline jobs before bulk" `Quick
      cross_steals_take_deadline_before_bulk;
    Alcotest.test_case "deadline miss counted" `Quick deadline_miss_counted;
    Alcotest.test_case "shard: cross steals drain a pinned shard's bulk lane" `Quick
      (cross_steals_drain_pinned_shard Serve.Bulk);
    Alcotest.test_case "shard: deadline relief drains a pinned shard's deadline lane" `Quick
      (cross_steals_drain_pinned_shard Serve.Deadline);
    Alcotest.test_case "shard: off-pool fulfil resumes at home" `Quick
      shard_offpool_fulfil_resumes_at_home;
    Alcotest.test_case "shard: worker fulfil resumes a parked request" `Quick
      shard_worker_fulfil_resumes_parked_request;
    Alcotest.test_case "lanes: the ledger partitions across 2 shards" `Quick
      (lane_conservation_and_latency ~shards:2);
    Alcotest.test_case "shard: every settle leaves one sojourn sample" `Quick
      sojourn_samples_survive_cross_steals;
  ]
