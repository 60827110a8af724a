(* E15: microbenchmarks — constant-time deque methods (Bechamel) and
   runtime throughput on the real Hood pool.

   The paper requires each deque method to complete in a constant number
   of instructions (Sec 3.2: "constant-time"); the ns/op estimates here
   witness that, and compare the non-blocking deque against the locked
   baseline on the uncontended fast path. *)

open Bechamel
open Toolkit

let abp_owner_pair () =
  let d : int Abp.Atomic_deque.t = Abp.Atomic_deque.create ~capacity:64 () in
  Staged.stage (fun () ->
      Abp.Atomic_deque.push_bottom d 1;
      ignore (Abp.Atomic_deque.pop_bottom d))

let abp_push_steal_pair () =
  (* popTop advances top without touching bot, so the owner's popBottom on
     the emptied deque is included: it resets the indices (Figure 5's
     tag-bump path), keeping the fixed array in range across iterations. *)
  let d : int Abp.Atomic_deque.t = Abp.Atomic_deque.create ~capacity:64 () in
  Staged.stage (fun () ->
      Abp.Atomic_deque.push_bottom d 1;
      ignore (Abp.Atomic_deque.pop_top d);
      ignore (Abp.Atomic_deque.pop_bottom d))

let circular_owner_pair () =
  let d : int Abp.Circular_deque.t = Abp.Circular_deque.create ~capacity:64 () in
  Staged.stage (fun () ->
      Abp.Circular_deque.push_bottom d 1;
      ignore (Abp.Circular_deque.pop_bottom d))

let circular_push_steal_pair () =
  (* No reset needed: circular indices never exhaust the buffer. *)
  let d : int Abp.Circular_deque.t = Abp.Circular_deque.create ~capacity:64 () in
  Staged.stage (fun () ->
      Abp.Circular_deque.push_bottom d 1;
      ignore (Abp.Circular_deque.pop_top d))

let locked_owner_pair () =
  let d : int Abp.Locked_deque.t = Abp.Locked_deque.create ~capacity:64 () in
  Staged.stage (fun () ->
      Abp.Locked_deque.push_bottom d 1;
      ignore (Abp.Locked_deque.pop_bottom d))

let reference_owner_pair () =
  let d : int Abp.Deque_spec.Reference.t = Abp.Deque_spec.Reference.create () in
  Staged.stage (fun () ->
      Abp.Deque_spec.Reference.push_bottom d 1;
      ignore (Abp.Deque_spec.Reference.pop_bottom d))

let wsm_owner_pair () =
  (* The push publishes (board drained each cycle) and the popBottom
     reclaims through the consume cursor: the owner's full cycle. *)
  let d : int Abp.Wsm_deque.t = Abp.Wsm_deque.create ~capacity:64 () in
  Staged.stage (fun () ->
      Abp.Wsm_deque.push_bottom d 1;
      ignore (Abp.Wsm_deque.pop_bottom d))

let wsm_push_steal_pair () =
  (* The fence-free steal path under measurement: popTop is loads plus
     one blind store — no CAS, no fetch-and-add — against the ABP pair's
     CASing popTop above. *)
  let d : int Abp.Wsm_deque.t = Abp.Wsm_deque.create ~capacity:64 () in
  Staged.stage (fun () ->
      Abp.Wsm_deque.push_bottom d 1;
      ignore (Abp.Wsm_deque.pop_top d))

let tests =
  Test.make_grouped ~name:"deque"
    [
      Test.make ~name:"abp push+popBottom" (abp_owner_pair ());
      Test.make ~name:"abp push+popTop+reset" (abp_push_steal_pair ());
      Test.make ~name:"circular push+popBottom" (circular_owner_pair ());
      Test.make ~name:"circular push+popTop" (circular_push_steal_pair ());
      Test.make ~name:"locked push+popBottom" (locked_owner_pair ());
      Test.make ~name:"reference push+popBottom" (reference_owner_pair ());
      Test.make ~name:"wsm push+popBottom" (wsm_owner_pair ());
      Test.make ~name:"wsm push+popTop" (wsm_push_steal_pair ());
    ]

let run_bechamel () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  Analyze.merge ols instances results

let print_results results =
  Hashtbl.iter
    (fun measure per_test ->
      if measure = Measure.label Instance.monotonic_clock then begin
        let rows = ref [] in
        Hashtbl.iter
          (fun name ols ->
            let est =
              match Analyze.OLS.estimates ols with
              | Some (t :: _) -> Printf.sprintf "%.1f" t
              | _ -> "n/a"
            in
            rows := [ name; est ] :: !rows)
          per_test;
        Common.table ~header:[ "operation pair"; "ns/op" ] (List.sort compare !rows)
      end)
    results

(* Gate-hook regression budget: the no-gate pool compiles the safe-point
   check down to nothing (monomorphized functor), so the deque fast path
   must stay at its historical cost — 28 ns/op for push+popBottom on a
   quiet machine.  Opt-in (ABP_MICRO_ASSERT=1): absolute ns/op depends
   on the box (a loaded shared runner measures ~33 even at the commit
   before the gates existed), so CI widens the ceiling with
   ABP_MICRO_BUDGET_NS while a dedicated perf job enforces the real
   budget. *)
let fast_path_budget_ns =
  match Sys.getenv_opt "ABP_MICRO_BUDGET_NS" with
  | Some s -> (try float_of_string s with _ -> 28.0)
  | None -> 28.0

let assert_fast_path results =
  if Sys.getenv_opt "ABP_MICRO_ASSERT" = Some "1" then
    Hashtbl.iter
      (fun measure per_test ->
        if measure = Measure.label Instance.monotonic_clock then
          Hashtbl.iter
            (fun name ols ->
              if name = "deque/abp push+popBottom" then
                match Analyze.OLS.estimates ols with
                | Some (t :: _) ->
                    if t > fast_path_budget_ns then begin
                      Printf.eprintf
                        "E15 FAILED: abp push+popBottom %.1f ns/op exceeds the %.0f ns budget\n"
                        t fast_path_budget_ns;
                      exit 1
                    end
                    else
                      Common.note "fast-path budget ok: abp push+popBottom %.1f <= %.0f ns/op"
                        t fast_path_budget_ns
                | _ -> ())
            per_test)
      results

let pool_throughput () =
  Common.note "";
  Common.note "Hood pool: parallel_reduce over 2M elements (tasks of grain 128)";
  Common.note "counter deltas (telemetry sink) recorded alongside the timings";
  let rows = ref [] in
  List.iter
    (fun p ->
      (* Counters-only sink (no event ring): per-worker records, no
         cross-domain contention on the timed path. *)
      let sink = Abp.Trace.Sink.create ~workers:p () in
      let pool = Abp.Pool.create ~processes:p ~trace:sink () in
      let t0 = Unix.gettimeofday () in
      let sum =
        Abp.Pool.run pool (fun () ->
            Abp.Par.parallel_reduce ~grain:128 ~lo:0 ~hi:2_000_000 ~init:0 ~combine:( + )
              (fun i -> i land 7))
      in
      let dt = Unix.gettimeofday () -. t0 in
      Abp.Pool.shutdown pool;
      let c = Abp.Trace.Sink.totals sink in
      rows :=
        [
          Common.i p;
          Printf.sprintf "%.3f" dt;
          Common.i sum;
          Printf.sprintf "%d/%d" c.Abp.Trace.Counters.successful_steals
            c.Abp.Trace.Counters.steal_attempts;
          Common.i c.Abp.Trace.Counters.pushes;
          Common.i
            (c.Abp.Trace.Counters.cas_failures_pop_top
            + c.Abp.Trace.Counters.cas_failures_pop_bottom);
          Common.i c.Abp.Trace.Counters.deque_high_water;
        ]
        :: !rows)
    [ 1; 2; 4 ];
  Common.table
    ~header:[ "P"; "seconds"; "checksum"; "steals"; "pushes"; "cas-lost"; "hiwater" ]
    (List.rev !rows);
  Common.note "(single-CPU container: domains timeshare, so no wall-clock speedup is expected;";
  Common.note " the performance-shape experiments run in the round-accurate simulator instead)"

let runtime_comparison () =
  Common.note "";
  Common.note "Runtime comparison on fib(27): work stealing (ABP and Chase-Lev deques) vs";
  Common.note "work sharing (one mutex-protected central queue)";
  let n = 27 in
  let rows = ref [] in
  let ws_time deque_impl p =
    let pool = Abp.Pool.create ~processes:p ~deque_impl () in
    let t0 = Unix.gettimeofday () in
    let v = Abp.Pool.run pool (fun () -> Abp.Par.fib n) in
    let dt = Unix.gettimeofday () -. t0 in
    Abp.Pool.shutdown pool;
    (v, dt)
  in
  List.iter
    (fun p ->
      let abp_val, abp_time = ws_time Abp.Pool.Abp p in
      let circ_val, circ_time = ws_time Abp.Pool.Circular p in
      let central = Abp.Central_pool.create ~processes:p () in
      let t0 = Unix.gettimeofday () in
      let c_val = Abp.Central_pool.run central (fun () -> Abp.Central_pool.fib central n) in
      let c_time = Unix.gettimeofday () -. t0 in
      Abp.Central_pool.shutdown central;
      assert (abp_val = c_val && circ_val = c_val);
      rows :=
        [
          Common.i p;
          Printf.sprintf "%.3f" abp_time;
          Printf.sprintf "%.3f" circ_time;
          Printf.sprintf "%.3f" c_time;
          Common.i (Abp.Central_pool.lock_acquisitions central);
        ]
        :: !rows)
    [ 1; 2; 4 ];
  Common.table
    ~header:[ "P"; "ws-abp s"; "ws-circular s"; "central s"; "central lock acqs" ]
    (List.rev !rows);
  Common.note "every spawn/acquire of the central pool serializes on one mutex; the work";
  Common.note "stealer coordinates only through its non-blocking per-worker deques"

let yield_ablation () =
  Common.note "";
  Common.note "Real-hardware yield ablation: thieves with vs without cpu_relax between steals";
  Common.note "(this container has 1 CPU and we run 6 domains: processes > processors, the";
  Common.note " regime where the paper says yields become essential)";
  let n = 29 in
  let rows = ref [] in
  List.iter
    (fun yield_kind ->
      let pool = Abp.Pool.create ~processes:6 ~yield_kind () in
      let t0 = Unix.gettimeofday () in
      let v = Abp.Pool.run pool (fun () -> Abp.Par.fib n) in
      let dt = Unix.gettimeofday () -. t0 in
      Abp.Pool.shutdown pool;
      ignore v;
      rows :=
        [
          (if yield_kind = Abp.Pool.No_yield then "no yield" else "with yield");
          Printf.sprintf "%.3f" dt;
          Common.i (Abp.Pool.steal_attempts pool);
        ]
        :: !rows)
    [ Abp.Pool.Yield_local; Abp.Pool.No_yield ];
  Common.table ~header:[ "thief backoff"; "fib(29) seconds"; "steal attempts" ] (List.rev !rows);
  Common.note "Linux's fair scheduler is not an adversary, so wall-clock survives; the cost";
  Common.note "shows as ~2x more futile steal attempts - processor time burned by thieves";
  Common.note "that a multiprogrammed machine would charge against co-running applications.";
  Common.note "The adversarial-kernel consequences are measured in the simulator (E12)."

let run () =
  Common.section "E15" "Microbenchmarks: constant-time deque methods + pool throughput";
  let results = run_bechamel () in
  print_results results;
  assert_fast_path results;
  pool_throughput ();
  runtime_comparison ();
  yield_ablation ()
