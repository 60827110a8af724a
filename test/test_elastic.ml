(* Elastic resizing: the supervisor's scale ops, parked-continuation
   migration across a quiesce, conservation across forced resize
   storms, the close/resize race, and the deadline-lane bypass of the
   cross-shard steal throttle.

   Worker counts honour ABP_MP_PROCS (like test_mp) so CI can rerun the
   suite oversubscribed. *)

module Pool = Abp_hood.Pool
module Serve = Abp_serve.Serve
module Shard = Abp_serve.Shard
module Supervisor = Abp_serve.Supervisor
module Backend = Abp_serve.Backend
module Fiber = Abp_fiber.Fiber

let procs () =
  match Sys.getenv_opt "ABP_MP_PROCS" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 1)
  | None -> 1

(* Spin politely until [pred] holds; false on timeout.  Generous
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

(* A key routing to shard [want] under the current (full) table. *)
let key_for topo want =
  let rec go k =
    if k > 10_000 then Alcotest.fail "no key found for shard"
    else if Shard.shard_of_key topo k = want then k
    else go (k + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* A continuation parked on a promise when its shard is quiesced must
   resume on the adopter via the resume redirect — fulfilled from a
   non-pool domain strictly AFTER the quiesce, so the only route home
   is the redirect. *)
let quiesce_migrates_parked_continuation () =
  let topo = Shard.create ~processes:1 ~shards:2 () in
  let a = Shard.shard_of_key topo 0 in
  let b = 1 - a in
  let pr : int Fiber.Promise.t = Fiber.Promise.create () in
  let t = Shard.submit topo ~key:0 (fun () -> Fiber.await pr + 1) in
  Alcotest.(check bool) "request parked" true
    (wait_until (fun () -> (Serve.stats (Shard.serve topo a)).Serve.suspended = 1));
  let migrated_late = ref 0 in
  (match Shard.quiesce ~on_migrate:(fun () -> incr migrated_late) topo ~shard:a ~target:b with
  | Some _ -> ()
  | None -> Alcotest.fail "quiesce refused");
  Alcotest.(check bool) "victim out of the table" false (Shard.is_active topo a);
  (* Off-pool fulfil: the continuation lands in shard [a]'s resume
     inbox, which is redirected to [b]. *)
  Fiber.Promise.fulfil pr 41;
  (match Serve.await t with
  | Serve.Returned v -> Alcotest.(check int) "awaiter got the value" 42 v
  | _ -> Alcotest.fail "awaiter not completed");
  Alcotest.(check bool) "redirect forwarded the continuation" true (!migrated_late >= 1);
  ignore (Shard.drain topo);
  Alcotest.(check bool) "conserved" true (Shard.conserved topo);
  Alcotest.(check int) "nothing left suspended" 0 (Serve.stats (Shard.serve topo a)).Serve.suspended;
  Shard.shutdown topo

(* ------------------------------------------------------------------ *)
(* 100 forced full-collapse/full-rebuild cycles under concurrent load
   (some of it parking on a backend): exact conservation, a balanced
   resize ledger, and nothing stranded. *)
let storm_conservation () =
  let p = procs () in
  let shards = 3 in
  let topo = Shard.create ~processes:p ~inbox_capacity:2048 ~shards () in
  let sup = Supervisor.create topo in
  let backend = Backend.create ~workers:2 () in
  let stop = Atomic.make false in
  let submitted = Atomic.make 0 in
  let gens =
    Array.init 2 (fun g ->
        Domain.spawn (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              incr i;
              let n = !i in
              if n mod 5 = 0 then
                ignore
                  (Shard.submit topo ~key:(n mod 11) (fun () ->
                       Fiber.await (Backend.call backend ~delay:0.0005 n)))
              else ignore (Shard.submit topo ~key:((g * 131) + n) (fun () -> n * n));
              Atomic.incr submitted
            done))
  in
  let cycles = 100 in
  for _ = 1 to cycles do
    ignore (Supervisor.scale_down sup);
    ignore (Supervisor.scale_down sup);
    Unix.sleepf 0.0003;
    ignore (Supervisor.scale_up sup);
    ignore (Supervisor.scale_up sup);
    Unix.sleepf 0.0003
  done;
  Atomic.set stop true;
  Array.iter Domain.join gens;
  let st = Shard.drain topo in
  Alcotest.(check int) "every cycle collapsed and rebuilt" (2 * cycles)
    (Supervisor.scale_down_count sup);
  Alcotest.(check int) "ups balance downs" (Supervisor.scale_down_count sup)
    (Supervisor.scale_up_count sup);
  Alcotest.(check int) "resize log covers every op"
    (Supervisor.scale_up_count sup + Supervisor.scale_down_count sup)
    (List.length (Supervisor.resizes sup));
  Alcotest.(check int) "all submissions admitted" (Atomic.get submitted) st.Serve.accepted;
  Alcotest.(check int) "nothing suspended after drain" 0 st.Serve.suspended;
  Alcotest.(check bool) "conserved shard-wise" true (Shard.conserved topo);
  Alcotest.(check bool) "supervisor counters track the ledger" true
    (Abp_trace.Counters.get (Supervisor.counters sup) Abp_trace.Counters.scale_ups
    = Supervisor.scale_up_count sup);
  Backend.stop backend;
  Shard.shutdown topo

(* ------------------------------------------------------------------ *)
(* Resizing races shutdown: once the topology is closing every resize
   is refused, and the supervisor's manual ops report failure instead
   of touching a draining topology.  Refusal guards also cover the
   last-active shard and double-reactivation. *)
let resize_refused_when_closing () =
  let topo = Shard.create ~processes:1 ~shards:2 () in
  (match Shard.quiesce topo ~shard:0 ~target:0 with
  | None -> ()
  | Some _ -> Alcotest.fail "self-target quiesce must refuse");
  (match Shard.quiesce topo ~shard:0 ~target:1 with
  | Some _ -> ()
  | None -> Alcotest.fail "first quiesce should succeed");
  (match Shard.quiesce topo ~shard:1 ~target:0 with
  | None -> ()
  | Some _ -> Alcotest.fail "last active shard must refuse to quiesce");
  Alcotest.(check bool) "reactivate spare" true (Shard.reactivate topo ~shard:0);
  Alcotest.(check bool) "double reactivate refused" false (Shard.reactivate topo ~shard:0);
  let sup = Supervisor.create topo in
  ignore (Shard.drain topo);
  (match Shard.quiesce topo ~shard:0 ~target:1 with
  | None -> ()
  | Some _ -> Alcotest.fail "quiesce after drain must refuse");
  Alcotest.(check bool) "reactivate after drain refused" false (Shard.reactivate topo ~shard:0);
  Alcotest.(check bool) "supervisor scale_down refused" false (Supervisor.scale_down sup);
  Alcotest.(check bool) "supervisor scale_up refused" false (Supervisor.scale_up sup);
  Alcotest.(check bool) "conserved" true (Shard.conserved topo);
  Shard.shutdown topo

(* ------------------------------------------------------------------ *)
(* Supervisor constructor validation. *)
let supervisor_validation () =
  let topo = Shard.create ~processes:1 ~shards:2 () in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "min > max rejected" true
    (bad (fun () -> Supervisor.create ~min_shards:2 ~max_shards:1 topo));
  Alcotest.(check bool) "max > shards rejected" true
    (bad (fun () -> Supervisor.create ~max_shards:3 topo));
  Shard.shutdown topo

(* ------------------------------------------------------------------ *)
(* Deadline-lane pressure bypasses the cross-shard steal throttle: with
   an absurd [cross_period] a sibling's bulk backlog stays put, but its
   deadline lane is relieved promptly by an idle remote worker even
   while the home worker is pinned. *)
let deadline_lane_bypasses_cross_period () =
  let topo = Shard.create ~processes:1 ~cross_period:1_000_000 ~cross_quota:4 ~shards:2 () in
  let a = Shard.shard_of_key topo 0 in
  let ka = key_for topo a in
  let release = Atomic.make false in
  (* Pin shard [a]'s only worker. *)
  let blocker =
    Shard.submit topo ~key:ka (fun () ->
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done)
  in
  let n = 8 in
  let done_count = Atomic.make 0 in
  for _ = 1 to n do
    ignore
      (Shard.submit topo ~key:ka ~lane:Serve.Deadline (fun () -> Atomic.incr done_count))
  done;
  (* Only shard [b]'s worker can run these, and only through the
     deadline-relief path — the generic cross-shard poll would need
     ~10^6 empty trips before its first real attempt. *)
  Alcotest.(check bool) "deadline jobs relieved while home worker pinned" true
    (wait_until (fun () -> Atomic.get done_count = n));
  Atomic.set release true;
  ignore (Serve.await blocker);
  ignore (Shard.drain topo);
  Alcotest.(check bool) "conserved" true (Shard.conserved topo);
  Shard.shutdown topo

(* ------------------------------------------------------------------ *)
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

let tests =
  [
    Alcotest.test_case "quiesce migrates a parked continuation" `Quick
      quiesce_migrates_parked_continuation;
    Alcotest.test_case "conservation across 100 forced resize cycles" `Slow storm_conservation;
    Alcotest.test_case "resize refused once closing" `Quick resize_refused_when_closing;
    Alcotest.test_case "supervisor constructor validation" `Quick supervisor_validation;
    Alcotest.test_case "deadline lane bypasses cross_period" `Quick
      deadline_lane_bypasses_cross_period;
    Alcotest.test_case "deadline miss counted" `Quick deadline_miss_counted;
  ]
