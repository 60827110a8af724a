(* The repository benchmark.  See perfbench/README.md for why each
   workload exists and which layer it isolates.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   metrics; the last line of standard output is the result object. *)

open Util

let workloads = [ "fork_join"; "fork_join_mp"; "serve_await" ]
let setup_repeats = 9

(* Median set-up time over [setup_repeats] set-ups; every instance but
   the last is torn down again. *)
let timed_setups setup teardown =
  let rec go k acc =
    let t0 = now () in
    let inst = setup () in
    let dt = float_of_int (now () - t0) /. 1e9 in
    if k = 1 then begin
      let all = Array.of_list (List.rev (dt :: acc)) in
      Printf.printf "  set-up times (s): %s\n"
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") all)));
      (inst, median all)
    end
    else begin
      teardown inst;
      go (k - 1) (dt :: acc)
    end
  in
  go setup_repeats []

(* The measured phase is cut into equal windows of at least
   [window_samples] samples each (at most [max_windows] windows), and
   each window gets its median, p90 and p99 (or, in a window too small
   to have ten samples beyond its p99, its highest percentile that
   does).  The host's processors change speed by tens of percent from
   one second to the next, stall for milliseconds at a time and lose
   whole seconds to the hypervisor, and that interference only ever adds
   latency, so each figure is the lowest decile over windows: the system
   as it runs in the quieter stretches of the run.  The end-to-end tail
   is the p90: across ten seeds the serving p99 spread by 0.3-0.9 of its
   median even so, so it is a per-layer figure ([tail.latency_p99_ms]). *)
let window_samples = 1_000
let max_windows = 40
let window_quantile = 0.1

type latency = { p50 : float; p90 : float; p99 : float }

let latency ~span ~at lat =
  let n = max 1 (min max_windows (Array.length lat / window_samples)) in
  let w = windows ~n ~span ~at lat in
  let stats =
    Array.mapi
      (fun k lat ->
        let q = supported_quantile (Array.length lat) 0.99 in
        let s = { p50 = median lat; p90 = quantile lat 0.9; p99 = quantile lat q } in
        Printf.printf "  window %d: %d samples  p50 %.4f ms  p90 %.4f ms  p%.2f %.4f ms\n" k
          (Array.length lat) s.p50 s.p90 (100. *. q) s.p99;
        s)
      w
  in
  let low f = quantile (Array.map f stats) window_quantile in
  { p50 = low (fun s -> s.p50); p90 = low (fun s -> s.p90); p99 = low (fun s -> s.p99) }

let latency_metrics l = [ ("latency_p50_ms", l.p50, "ms"); ("latency_p90_ms", l.p90, "ms") ]

let p99 a = quantile a (supported_quantile (Array.length a) 0.99)

(* ---- Per-layer figures shared by every workload. ---- *)

let counter fields name = float_of_int (Option.value ~default:0 (List.assoc_opt name fields))

let counter_metrics c =
  let n = counter c in
  [
    ("deque.pushes", n "pushes", "count");
    ("deque.pops", n "pops", "count");
    ("deque.cas_fail_top", n "cas_failures_pop_top", "count");
    ("deque.cas_fail_bottom", n "cas_failures_pop_bottom", "count");
    ("deque.high_water", n "deque_high_water", "count");
    ("pool.steal_attempts", n "steal_attempts", "count");
    ("pool.steals", n "successful_steals", "count");
    ("pool.steal_yield", n "successful_steals" /. Float.max 1. (n "steal_attempts"), "ratio");
    ("pool.yields", n "yields", "count");
    ("pool.parks", n "parks", "count");
    ("pool.inject_polls", n "inject_polls", "count");
    ("pool.inject_tasks", n "inject_tasks", "count");
    ("pool.inject_hit", n "inject_tasks" /. Float.max 1. (n "inject_polls"), "ratio");
    ("serve.lane_polls", n "lane_polls", "count");
    ("serve.lane_tasks", n "lane_tasks", "count");
    ("serve.deadline_misses", n "deadline_misses", "count");
    ("fiber.suspensions", n "suspensions", "count");
    ("fiber.resumes", n "resumes", "count");
    ("mp.gate_suspends", n "gate_suspends", "count");
    ("mp.directed_yields", n "directed_yields", "count");
  ]

let rung_metrics (r : Rungs.t) =
  List.map
    (fun (x : rung) ->
      if x.name = "serve.empty_job" then ("serve.empty_job_us", x.med /. 1e3, "us")
      else (x.name, x.med, "ns"))
    r.rungs

(* Layer figures a workload may not exercise.  Each is taken from the
   workload's traced pass when it does, and otherwise from the rung that
   isolates the layer, so every trace run reports every figure. *)
type layer = {
  fj_parts : float array Lazy.t;  (** spawn tree, nqueens, reduce medians (ms) *)
  serve_spans : (float array * float array * float array * float array) option;
      (** submit ns, queue us, run us, deadline-lane sojourn ms *)
  max_rate : float;
  resume_lag : float array option;
  shard : (int * int * int * int array) option;  (** cross polls/steals/tasks, routes *)
  shed : int;
  backend_calls : int;
  pbar : float;
  efficiency : float;
  late_us_p99 : float;
  tail_p99 : float;  (** the untraced pass's windowed p99 *)
  unexplained : float;
  overhead : float;
}

let layer_metrics (r : Rungs.t) l =
  let parts = Lazy.force l.fj_parts in
  let sub, queue, run, dl =
    match l.serve_spans with
    | Some s -> s
    | None -> (r.serve.submit_ns, r.serve.queue_us, r.serve.run_us, r.serve.deadline_ms)
  in
  let lag = Option.value l.resume_lag ~default:r.inbox_lag_us in
  let polls, steals, tasks, routes = Option.value l.shard ~default:(0, 0, 0, [| 1 |]) in
  let mean_route =
    float_of_int (Array.fold_left ( + ) 0 routes) /. float_of_int (Array.length routes)
  in
  [
    ("fj.spawn_tree_ms", parts.(0), "ms");
    ("fj.nqueens_ms", parts.(1), "ms");
    ("fj.reduce_ms", parts.(2), "ms");
    ("serve.submit_ns_p50", median sub, "ns");
    ("serve.submit_ns_p99", p99 sub, "ns");
    ("serve.queue_us_p50", median queue, "us");
    ("serve.queue_us_p99", p99 queue, "us");
    ("serve.run_us_p50", median run, "us");
    ("serve.deadline_p99_ms", p99 dl, "ms");
    ("serve.max_rate_per_s", l.max_rate, "1/s");
    ("serve.shed", float_of_int l.shed, "count");
    ("shard.cross_polls", float_of_int polls, "count");
    ("shard.cross_steals", float_of_int steals, "count");
    ("shard.cross_tasks", float_of_int tasks, "count");
    ("shard.cross_hit", ratio steals polls, "ratio");
    ( "shard.route_skew",
      (if mean_route = 0. then 0.
       else float_of_int (Array.fold_left max 0 routes) /. mean_route),
      "ratio" );
    ("fiber.resume_lag_us_p50", median lag, "us");
    ("fiber.resume_lag_us_p99", p99 lag, "us");
    ("backend.calls", float_of_int l.backend_calls, "count");
    ("mp.pbar", l.pbar, "procs");
    ("mp.efficiency", l.efficiency, "ratio");
    ("gen.late_us_p99", l.late_us_p99, "us");
    ("tail.latency_p99_ms", l.tail_p99, "ms");
    ("trace.overhead_frac", l.overhead, "frac");
    ("attr.unexplained_frac", l.unexplained, "frac");
  ]

(* ---- Workload drivers. ---- *)

type outcome = {
  metrics : (string * float * string) list;
  attempted : int;
  failed : int;
  checks : (string * bool) list;
}

let spans_path workload = Filename.concat "perfbench/out" (workload ^ ".spans.tsv")

let ensure_out_dir () = if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755

let fork_join ~mp ~workload ~seed ~seconds ~trace ~plant =
  let inp = Gen.fj ~seed in
  let expected = Fj.reference inp in
  let setup () = Fj.setup ~mp inp in
  let inst, setup_s = timed_setups setup Fj.destroy in
  if not trace then
    let p = Fj.run_pass inst inp ~expected ~seconds ~traced:false ~plant in
    {
      metrics =
        latency_metrics (latency ~span:p.span_ns ~at:p.start_ns p.lat_ms)
        @ [ ("setup_s", setup_s, "s") ];
      attempted = p.attempted;
      failed = p.failed;
      checks = [];
    }
  else
    let half = seconds /. 2. in
    let plain = Fj.run_pass inst inp ~expected ~seconds:half ~traced:false ~plant in
    let traced = Fj.run_pass (setup ()) inp ~expected ~seconds:half ~traced:true ~plant in
    ensure_out_dir ();
    Fj.write_spans traced (spans_path workload);
    let t1 = Fj.t1_ms inp in
    let rungs = Rungs.all () in
    let p50 = median traced.lat_ms in
    let l =
      {
        fj_parts = Lazy.from_val (Array.map median traced.parts_ms);
        serve_spans = None;
        max_rate = 0.;
        resume_lag = None;
        shard = None;
        shed = 0;
        backend_calls = 0;
        pbar = traced.pbar;
        efficiency = t1 /. (traced.pbar *. p50);
        late_us_p99 = p99 traced.late_us;
        tail_p99 = (latency ~span:plain.span_ns ~at:plain.start_ns plain.lat_ms).p99;
        unexplained = median traced.unexplained;
        overhead = (p50 /. median plain.lat_ms) -. 1.;
      }
    in
    List.iter pp_rung rungs.rungs;
    {
      metrics =
        counter_metrics traced.counters @ rung_metrics rungs @ layer_metrics rungs l;
      attempted = plain.attempted + traced.attempted;
      failed = plain.failed + traced.failed;
      checks = [];
    }

let serving ~workload ~seed ~seconds ~trace ~plant =
  let teardown (i : Serving.inst) =
    ignore (Abp.Shard.drain i.shard);
    Abp.Backend.stop i.backend;
    Abp.Shard.shutdown i.shard
  in
  let setup () = Serving.setup ~seed in
  let inst, setup_s = timed_setups setup teardown in
  if not trace then
    let reqs = Serving.schedule ~seed ~seconds ~ramp:false in
    let p = Serving.run_pass inst reqs ~traced:false ~plant in
    {
      metrics =
        (let at, lat = Serving.main_latency_at p in
         latency_metrics (latency ~span:(int_of_float (seconds *. 1e9)) ~at lat))
        @ [ ("setup_s", setup_s, "s") ];
      attempted = p.attempted;
      failed = p.failed;
      checks = p.checks;
    }
  else
    let half = seconds /. 2. in
    let plain =
      Serving.run_pass inst (Serving.schedule ~seed ~seconds:half ~ramp:false) ~traced:false ~plant
    in
    let reqs = Serving.schedule ~seed ~seconds:half ~ramp:true in
    let traced = Serving.run_pass (setup ()) reqs ~traced:true ~plant in
    ensure_out_dir ();
    Serving.write_spans traced (spans_path workload);
    let rungs = Rungs.all () in
    let polls, steals, tasks = traced.cross in
    let l =
      {
        fj_parts =
          (let inp = Gen.fj ~seed in
           lazy (Fj.parts_rung inp ~expected:(Fj.reference inp)));
        serve_spans =
          Some
            ( Serving.submit_ns traced,
              Serving.queue_us traced,
              Serving.run_us traced,
              Serving.deadline_latency traced );
        max_rate = Serving.max_rate traced;
        resume_lag = Some (Serving.resume_lag_us traced);
        shard = Some (polls, steals, tasks, traced.routes);
        shed = traced.shed;
        backend_calls = traced.backend_calls;
        pbar = float_of_int nproc;
        efficiency = 0.;
        late_us_p99 = p99 (Serving.late_us traced);
        tail_p99 =
          (let at, lat = Serving.main_latency_at plain in
           (latency ~span:(int_of_float (half *. 1e9)) ~at lat).p99);
        unexplained = Serving.unexplained traced;
        overhead =
          (median (Serving.main_latency traced) /. median (Serving.main_latency plain)) -. 1.;
      }
    in
    List.iter pp_rung rungs.rungs;
    {
      metrics =
        counter_metrics traced.counters @ rung_metrics rungs @ layer_metrics rungs l;
      attempted = plain.attempted + traced.attempted;
      failed = plain.failed + traced.failed;
      checks =
        List.map (fun (k, v) -> ("untraced." ^ k, v)) plain.checks
        @ List.map (fun (k, v) -> ("traced." ^ k, v)) traced.checks;
    }

(* ---- Command line. ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" and plant = ref false and digest = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--commit", Arg.Set_string commit, "ID source revision, for the provenance line");
      ("--plant-wrong", Arg.Set plant, " corrupt one result (the check must catch it)");
      ("--digest", Arg.Set digest, " print the input digest for the seed and exit");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe [options]";
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "perfbench: unknown workload %S (expected one of %s)\n" !workload
      (String.concat ", " workloads);
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let input_digest () =
    if !workload = "serve_await" then
      Gen.digest_reqs (Serving.schedule ~seed:!seed ~seconds:!seconds ~ramp:true)
    else Gen.digest_fj (Gen.fj ~seed:!seed)
  in
  if !digest then begin
    print_endline (input_digest ());
    exit 0
  end;
  Printf.printf
    "{\"provenance\": {\"workload\": %s, \"seed\": %d, \"seconds\": %g, \"trace\": %d, \"nproc\": %d, \"ocaml\": %s, \"commit\": %s, \"inputs\": %s}}\n%!"
    (json_string !workload) !seed !seconds !trace nproc (json_string Sys.ocaml_version)
    (json_string !commit) (json_string (input_digest ()));
  let trace = !trace = 1 and seed = !seed and seconds = !seconds and plant = !plant in
  let workload = !workload in
  let o =
    match workload with
    | "serve_await" -> serving ~workload ~seed ~seconds ~trace ~plant
    | "fork_join_mp" -> fork_join ~mp:true ~workload ~seed ~seconds ~trace ~plant
    | _ -> fork_join ~mp:false ~workload ~seed ~seconds ~trace ~plant
  in
  List.iter
    (fun (k, ok) -> if not ok then Printf.printf "  check failed: %s\n" k)
    o.checks;
  List.iter (fun (k, v, u) -> Printf.printf "  %-28s %14.6g %s\n" k v u) o.metrics;
  let correct = o.failed = 0 && List.for_all snd o.checks in
  print_endline (result_line ~correct ~attempted:o.attempted ~failed:o.failed o.metrics);
  exit (if correct then 0 else 1)
