(* E15: the deque fast-path budget plus runtime throughput on the real
   Hood pool.

   The paper requires each deque method to complete in a constant number
   of instructions (Sec 3.2: "constant-time").  The per-deque owner and
   steal costs are perfbench's [deque.{abp,circular,locked,wsm}.*_ns]
   rungs; this experiment keeps the one pair that carries a gate. *)

open Bechamel
open Toolkit

let abp_owner_pair () =
  let d : int Abp.Atomic_deque.t = Abp.Atomic_deque.create ~capacity:64 () in
  Staged.stage (fun () ->
      Abp.Atomic_deque.push_bottom d 1;
      ignore (Abp.Atomic_deque.pop_bottom d))

let fast_path_name = "deque/abp push+popBottom"

(* Bechamel's OLS estimate of one push+popBottom pair, in ns. *)
let fast_path_ns () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let test = Test.make ~name:fast_path_name (abp_owner_pair ()) in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  Hashtbl.fold
    (fun _ ols est ->
      match Analyze.OLS.estimates ols with Some (t :: _) -> Some t | _ -> est)
    (Analyze.all ols Instance.monotonic_clock raw)
    None

(* Gate-hook regression budget: the gate lives in the pool, which checks
   it only at safe points (one never-taken branch on an ungated pool),
   never inside a deque method, so the deque fast path must stay at its
   historical cost — 28 ns/op for push+popBottom on a
   quiet machine.  Opt-in (ABP_MICRO_ASSERT=1): absolute ns/op depends
   on the box (a loaded shared runner measures ~33 even at the commit
   before the gates existed), so CI widens the ceiling with
   ABP_MICRO_BUDGET_NS while a dedicated perf job enforces the real
   budget.  A budget that is not a number is a usage error (exit 2). *)
let fast_path_budget_ns () =
  match Sys.getenv_opt "ABP_MICRO_BUDGET_NS" with
  | None -> 28.0
  | Some s -> (
      match float_of_string_opt s with
      | Some b -> b
      | None ->
          Printf.eprintf "E15: ABP_MICRO_BUDGET_NS=%S is not a number of ns\n" s;
          exit 2)

let fast_path () =
  let budget = fast_path_budget_ns () in
  let est = fast_path_ns () in
  Common.table ~header:[ "operation pair"; "ns/op" ]
    [ [ fast_path_name; (match est with Some t -> Printf.sprintf "%.1f" t | None -> "n/a") ] ];
  if Sys.getenv_opt "ABP_MICRO_ASSERT" = Some "1" then
    match est with
    | Some t when t > budget ->
        Printf.eprintf "E15 FAILED: abp push+popBottom %.1f ns/op exceeds the %.0f ns budget\n" t
          budget;
        exit 1
    | Some t -> Common.note "fast-path budget ok: abp push+popBottom %.1f <= %.0f ns/op" t budget
    | None -> ()

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
          Printf.sprintf "%d/%d" Abp.Trace.Counters.(get c successful_steals)
            Abp.Trace.Counters.(get c steal_attempts);
          Common.i Abp.Trace.Counters.(get c pushes);
          Common.i
            Abp.Trace.Counters.(get c cas_failures_pop_top + get c cas_failures_pop_bottom);
          Common.i Abp.Trace.Counters.(get c deque_high_water);
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
  Common.section "E15" "Microbenchmarks: deque fast-path budget + pool throughput";
  fast_path ();
  pool_throughput ();
  runtime_comparison ();
  yield_ablation ()
