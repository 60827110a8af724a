(* E32: tail-latency benchmark — open-loop arrivals against the
   lane-aware serving layer.

   Closed-loop clients (E27/E30) couple the arrival rate to the
   completion rate, which is exactly how tail latency hides: a slow
   server slows its own load generator.  Here arrivals follow a
   stochastic process on the monotonic clock, independent of
   completions, and latency comes from the merged log-scale histograms
   (Abp.Log_histogram) rather than a bounded sample window.  Cells:

     record_micro   Log_histogram.record cost on the hot path
                    (full-mode gate: <= 50 ns/op)
     curves         percentile-vs-load sweep: arrival in
                    {poisson, burst} x offered load fraction, lanes on,
                    per-lane p50/p99/p999 sojourn, per-cell
                    conservation (accepted + shed = arrivals)
     lanes_vs_laneless
                    the same mixed bulk+latency workload at the same
                    offered load, once with the deadline lane and once
                    with every request on the bulk lane; the
                    deadline-class p99 is measured identically in both
                    runs (recorded at the end of the request body)
                    (full-mode gate: laneless p99 >= 2x laned p99)
     soak           >= 1e6 requests mixing plain bodies, awaits on a
                    simulated backend, planned exceptions and expired
                    deadlines; the await-aware conservation invariant
                    must hold exactly (accepted = completed + cancelled
                    + exceptions, suspended = 0) — gated in both modes

   Emits schema-checked JSON (default BENCH_tail.json, schema
   abp-tail/1), re-read and validated before exit:

     dune exec bench/exp_tail.exe                    # full run, gated
     dune exec bench/exp_tail.exe -- --smoke         # CI smoke
     dune exec bench/exp_tail.exe -- --json out.json *)

let json_file = ref "BENCH_tail.json"
let smoke = ref false

let spec =
  [
    ("--json", Arg.Set_string json_file, "FILE  output file (default BENCH_tail.json)");
    ("--smoke", Arg.Set smoke, "  tiny sizes for CI schema checks (perf gates off)");
  ]

module H = Abp.Log_histogram

let now = Abp.Clock.now
let to_ms = Abp.Clock.to_ms

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

(* Workload mix: heavy bulk bodies (~1 ms of CPU) against tiny
   deadline-class bodies, so queueing behind bulk work — not service
   time — dominates the deadline-class tail.  This is the regime the
   lanes exist for. *)
let p_workers = 4
let bulk_fib = 27
let dl_fib = 8
let dl_share = 0.1
let gen_domains = 2
let curve_duration_s () = if !smoke then 0.4 else 2.0
let mix_duration_s () = if !smoke then 0.6 else 3.0
let record_ops () = if !smoke then 2_000_000 else 20_000_000
let soak_requests () = if !smoke then 30_000 else 1_200_000
let load_factors () = if !smoke then [ 0.5 ] else [ 0.25; 0.5; 0.75 ]
let record_gate_ns = 50.0
let mix_gate_ratio = 2.0

(* ------------------------------------------------------------------ *)
(* Open-loop generator (same processes as hoodserve --open-loop).     *)

type arrival = Poisson | Burst

let arrival_name = function Poisson -> "poisson" | Burst -> "burst"

(* Burst: two-state MMPP — ON at 3x the nominal rate for ~10 ms, OFF
   (silent) for ~20 ms; long-run average equals the nominal rate while
   individual bursts overrun the service rate and build real queues. *)
let on_dwell_s = 0.010
let off_dwell_s = 0.020

(* Drive [total] arrivals at [rate] req/s from [gen_domains] generator
   domains on the monotonic clock; [emit rng] performs one admission
   and returns [true] if the arrival was shed (inbox full). *)
let drive ~arrival ~rate ~total ~(emit : Abp.Rng.t -> bool) =
  let shed = Atomic.make 0 in
  let per = total / gen_domains in
  let ds =
    Array.init gen_domains (fun g ->
        Domain.spawn (fun () ->
            let rng = Abp.Rng.create ~seed:(Int64.of_int (0xE32 + (g * 7919))) () in
            let mean_ns = 1e9 *. float_of_int gen_domains /. rate in
            let next = ref (now ()) in
            let on = ref false and dwell_until = ref !next in
            for _ = 1 to per do
              let gap_ns =
                match arrival with
                | Poisson -> Abp.Rng.exponential rng ~mean:mean_ns
                | Burst ->
                    if !next >= !dwell_until then begin
                      on := not !on;
                      dwell_until :=
                        !next + Abp.Clock.of_s (if !on then on_dwell_s else off_dwell_s)
                    end;
                    let burst_gap = Abp.Rng.exponential rng ~mean:(mean_ns /. 3.0) in
                    if !on then burst_gap
                    else float_of_int (!dwell_until - !next) +. burst_gap
              in
              next := !next + int_of_float gap_ns;
              Abp.Clock.sleep_until !next;
              if emit rng then Atomic.incr shed
            done))
  in
  Array.iter Domain.join ds;
  (per * gen_domains, Atomic.get shed)

(* ------------------------------------------------------------------ *)
(* record_micro: the per-sample accounting cost.                      *)

let measure_record () =
  let ops = record_ops () in
  let h = H.create () in
  let mask = (1 lsl 16) - 1 in
  (* deterministic values spanning the exact region and several
     octaves, pre-generated so the loop measures [record] alone *)
  let vals = Array.init (mask + 1) (fun i -> i * 48271 mod 10_000_000) in
  let t0 = now () in
  for i = 0 to ops - 1 do
    H.record h (Array.unsafe_get vals (i land mask))
  done;
  let dt = now () - t0 in
  if H.count h <> ops then failwith "exp_tail: record_micro lost samples";
  (ops, float_of_int dt /. float_of_int ops)

(* ------------------------------------------------------------------ *)
(* Capacity calibration: closed-loop saturation throughput of the     *)
(* mixed workload, the denominator for the offered-load fractions.    *)

let calibrate () =
  let s = Abp.Shard.create ~processes:p_workers ~inbox_capacity:4096 ~shards:1 () in
  let reqs_per_client = if !smoke then 60 else 400 in
  let clients = 2 * p_workers in
  let t0 = now () in
  let ds =
    Array.init clients (fun c ->
        Domain.spawn (fun () ->
            let rng = Abp.Rng.create ~seed:(Int64.of_int (0xCA1 + (c * 31))) () in
            for _ = 1 to reqs_per_client do
              let dl = Abp.Rng.bernoulli rng ~p:dl_share in
              let lane : Abp.Serve.lane = if dl then Deadline else Bulk in
              let n = if dl then dl_fib else bulk_fib in
              ignore (Abp.Serve.await (Abp.Shard.submit s ~lane (fun () -> fib_seq n)))
            done))
  in
  Array.iter Domain.join ds;
  let dt = now () - t0 in
  Abp.Shard.shutdown s;
  float_of_int (clients * reqs_per_client) /. Abp.Clock.to_s dt

(* ------------------------------------------------------------------ *)
(* curves: per-lane percentiles vs offered load.                      *)

type lane_summary = { samples : int; p50_ms : float; p99_ms : float; p999_ms : float }

let lane_summary s lane =
  match Abp.Shard.lane_sojourn_latency s lane with
  | None -> { samples = 0; p50_ms = 0.0; p99_ms = 0.0; p999_ms = 0.0 }
  | Some l ->
      {
        samples = l.Abp.Serve.samples;
        p50_ms = l.Abp.Serve.p50 *. 1e3;
        p99_ms = l.Abp.Serve.p99 *. 1e3;
        p999_ms = l.Abp.Serve.p999 *. 1e3;
      }

type curve_cell = {
  cc_arrival : arrival;
  cc_load : float;
  cc_rate : float;
  cc_arrivals : int;
  cc_shed : int;
  cc_st : Abp.Serve.stats;
  cc_conserved : bool;
  cc_bulk : lane_summary;
  cc_dl : lane_summary;
}

let measure_curve ~capacity ~arrival ~load =
  let rate = capacity *. load in
  let total = max 400 (int_of_float (rate *. curve_duration_s ())) in
  let s = Abp.Shard.create ~processes:p_workers ~inbox_capacity:4096 ~shards:1 () in
  let emit rng =
    let dl = Abp.Rng.bernoulli rng ~p:dl_share in
    let lane : Abp.Serve.lane = if dl then Deadline else Bulk in
    let n = if dl then dl_fib else bulk_fib in
    match Abp.Shard.try_submit s ~lane (fun () -> fib_seq n) with
    | Ok _ -> false
    | Error _ -> true
  in
  let arrivals, shed = drive ~arrival ~rate ~total ~emit in
  let st = Abp.Shard.drain s in
  let cc_bulk = lane_summary s Abp.Serve.Bulk
  and cc_dl = lane_summary s Abp.Serve.Deadline in
  let lane_ok =
    List.for_all
      (fun lane ->
        let ls = Abp.Shard.lane_stats s lane in
        ls.Abp.Serve.lane_accepted
        = ls.Abp.Serve.lane_completed + ls.Abp.Serve.lane_cancelled
          + ls.Abp.Serve.lane_exceptions)
      Abp.Serve.lanes
  in
  Abp.Shard.shutdown s;
  let cc_conserved =
    st.Abp.Serve.accepted = st.Abp.Serve.completed + st.Abp.Serve.cancelled + st.Abp.Serve.exceptions
    && st.Abp.Serve.suspended = 0
    && st.Abp.Serve.accepted + shed = arrivals
    && st.Abp.Serve.rejected = shed && lane_ok
  in
  {
    cc_arrival = arrival;
    cc_load = load;
    cc_rate = rate;
    cc_arrivals = arrivals;
    cc_shed = shed;
    cc_st = st;
    cc_conserved;
    cc_bulk;
    cc_dl;
  }

(* ------------------------------------------------------------------ *)
(* lanes_vs_laneless: the tentpole comparison.  Bursty arrivals at    *)
(* 0.7x capacity; deadline-class sojourn is recorded at the end of    *)
(* each request body into a client-side sharded histogram so both     *)
(* runs are measured by exactly the same probe.                       *)

type mix_run = { mr_samples : int; mr_p50_ms : float; mr_p99_ms : float; mr_shed : int }

let measure_mix ~capacity ~lanes_on =
  let rate = capacity *. 0.7 in
  let total = max 800 (int_of_float (rate *. mix_duration_s ())) in
  let s = Abp.Shard.create ~processes:p_workers ~inbox_capacity:4096 ~shards:1 () in
  let dl_h = H.Sharded.create ~shards:p_workers () in
  let emit rng =
    let dl = Abp.Rng.bernoulli rng ~p:dl_share in
    let lane : Abp.Serve.lane = if lanes_on && dl then Deadline else Bulk in
    let n = if dl then dl_fib else bulk_fib in
    let submitted = now () in
    let body () =
      let v = fib_seq n in
      if dl then begin
        let shard = match Abp_hood.Worker.self_id () with Some i -> i | None -> 0 in
        H.Sharded.record dl_h ~shard (now () - submitted)
      end;
      v
    in
    match Abp.Shard.try_submit s ~lane body with Ok _ -> false | Error _ -> true
  in
  let arrivals, shed = drive ~arrival:Burst ~rate ~total ~emit in
  let st = Abp.Shard.drain s in
  Abp.Shard.shutdown s;
  if
    st.Abp.Serve.accepted
    <> st.Abp.Serve.completed + st.Abp.Serve.cancelled + st.Abp.Serve.exceptions
    || st.Abp.Serve.accepted + shed <> arrivals
  then failwith "exp_tail: lanes_vs_laneless conservation violated";
  let h = H.Sharded.merged dl_h in
  if H.count h = 0 then failwith "exp_tail: no deadline-class samples";
  {
    mr_samples = H.count h;
    mr_p50_ms = to_ms (H.quantile h 0.5);
    mr_p99_ms = to_ms (H.quantile h 0.99);
    mr_shed = shed;
  }

(* ------------------------------------------------------------------ *)
(* soak: conservation at volume, all invariant terms nonzero.         *)

type soak_cell = {
  sk_requests : int;
  sk_st : Abp.Serve.stats;
  sk_conserved : bool;
  sk_rps : float;
}

let measure_soak () =
  let total = soak_requests () in
  let gens = 4 in
  let per = total / gens in
  let requests = per * gens in
  let s = Abp.Shard.create ~processes:p_workers ~inbox_capacity:4096 ~shards:1 () in
  let backend = Abp.Backend.create ~workers:2 () in
  let t0 = now () in
  let ds =
    Array.init gens (fun g ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              let lane : Abp.Serve.lane = if i land 3 = 0 then Deadline else Bulk in
              if i mod 1024 = 0 then
                (* await path: park on a simulated backend, resume via
                   the external-fulfiller re-injection *)
                ignore
                  (Abp.Shard.submit s ~lane (fun () ->
                       Abp.Fiber.await (Abp.Backend.call backend ~delay:0.0002 i)))
              else if i mod 509 = 0 then
                ignore (Abp.Shard.submit s ~lane (fun () -> failwith "soak: planned failure"))
              else if i mod 2048 = g then
                (* already-expired deadline: dropped as Cancelled at dequeue *)
                ignore (Abp.Shard.submit s ~lane ~deadline:0.0 (fun () -> fib_seq 1))
              else ignore (Abp.Shard.submit s ~lane (fun () -> fib_seq 1))
            done))
  in
  Array.iter Domain.join ds;
  let st = Abp.Shard.drain s in
  let dt = now () - t0 in
  let lane_ok =
    List.for_all
      (fun lane ->
        let ls = Abp.Shard.lane_stats s lane in
        ls.Abp.Serve.lane_accepted
        = ls.Abp.Serve.lane_completed + ls.Abp.Serve.lane_cancelled
          + ls.Abp.Serve.lane_exceptions)
      Abp.Serve.lanes
  in
  Abp.Backend.stop backend;
  Abp.Shard.shutdown s;
  let sk_conserved =
    st.Abp.Serve.accepted = requests
    && st.Abp.Serve.accepted
       = st.Abp.Serve.completed + st.Abp.Serve.cancelled + st.Abp.Serve.exceptions
    && st.Abp.Serve.suspended = 0
    && st.Abp.Serve.cancelled > 0 && st.Abp.Serve.exceptions > 0 && lane_ok
  in
  { sk_requests = requests; sk_st = st; sk_conserved; sk_rps = float_of_int requests /. Abp.Clock.to_s dt }

(* ------------------------------------------------------------------ *)
(* JSON out (hand-rolled: fixed ASCII keys, numbers only).            *)

let f3 x = Printf.sprintf "%.3f" x
let f6 x = Printf.sprintf "%.6f" x

let lane_json l =
  Printf.sprintf {|{"samples":%d,"p50_ms":%s,"p99_ms":%s,"p999_ms":%s}|} l.samples
    (f3 l.p50_ms) (f3 l.p99_ms) (f3 l.p999_ms)

let curve_json c =
  Printf.sprintf
    {|    {"arrival":"%s","load":%s,"rate_rps":%s,"arrivals":%d,"accepted":%d,"completed":%d,"shed":%d,"conserved":%b,"bulk":%s,"deadline":%s}|}
    (arrival_name c.cc_arrival) (f3 c.cc_load) (f3 c.cc_rate) c.cc_arrivals
    c.cc_st.Abp.Serve.accepted c.cc_st.Abp.Serve.completed c.cc_shed c.cc_conserved
    (lane_json c.cc_bulk) (lane_json c.cc_dl)

let to_json ~ops ~ns_per_op ~record_pass ~capacity ~curves ~laned ~laneless ~ratio ~mix_pass
    ~soak =
  String.concat "\n"
    ([
       "{";
       {|  "schema": "abp-tail/1",|};
       Printf.sprintf {|  "mode": "%s",|} (if !smoke then "smoke" else "full");
       Printf.sprintf {|  "p": %d,|} p_workers;
       Printf.sprintf {|  "bulk_fib": %d, "dl_fib": %d, "dl_share": %s,|} bulk_fib dl_fib
         (f3 dl_share);
       Printf.sprintf {|  "capacity_rps": %s,|} (f3 capacity);
       Printf.sprintf
         {|  "record_micro": {"ops":%d,"ns_per_op":%s,"gate_ns":%s,"pass":%b},|} ops
         (f3 ns_per_op) (f3 record_gate_ns) record_pass;
       {|  "curves": [|};
     ]
    @ [ String.concat ",\n" (List.map curve_json curves) ]
    @ [
        "  ],";
        Printf.sprintf
          {|  "lanes_vs_laneless": {"arrival":"burst","load":0.7,"laned":{"samples":%d,"p50_ms":%s,"p99_ms":%s,"shed":%d},"laneless":{"samples":%d,"p50_ms":%s,"p99_ms":%s,"shed":%d},"ratio":%s,"gate_min_ratio":%s,"pass":%b},|}
          laned.mr_samples (f3 laned.mr_p50_ms) (f3 laned.mr_p99_ms) laned.mr_shed
          laneless.mr_samples (f3 laneless.mr_p50_ms) (f3 laneless.mr_p99_ms) laneless.mr_shed
          (f3 ratio) (f3 mix_gate_ratio) mix_pass;
        Printf.sprintf
          {|  "soak": {"requests":%d,"accepted":%d,"completed":%d,"cancelled":%d,"exceptions":%d,"suspended":%d,"conserved":%b,"rps":%s}|}
          soak.sk_requests soak.sk_st.Abp.Serve.accepted soak.sk_st.Abp.Serve.completed
          soak.sk_st.Abp.Serve.cancelled soak.sk_st.Abp.Serve.exceptions
          soak.sk_st.Abp.Serve.suspended soak.sk_conserved (f6 soak.sk_rps);
        "}";
        "";
      ])

let validate =
  Schema.check ~label:"BENCH_tail.json"
    ~required:
      [
        {|"schema": "abp-tail/1"|};
        {|"mode"|};
        {|"capacity_rps"|};
        {|"record_micro"|};
        {|"ns_per_op"|};
        {|"curves"|};
        {|"arrival":"poisson"|};
        {|"arrival":"burst"|};
        {|"p50_ms"|};
        {|"p99_ms"|};
        {|"p999_ms"|};
        {|"lanes_vs_laneless"|};
        {|"ratio"|};
        {|"soak"|};
        {|"conserved"|};
        {|"suspended"|};
      ]

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "exp_tail [--smoke] [--json FILE]";
  Printf.printf "== E32 tail latency (%s mode, p=%d, bulk fib %d / deadline fib %d @ %.0f%%) ==\n%!"
    (if !smoke then "smoke" else "full")
    p_workers bulk_fib dl_fib (dl_share *. 100.0);
  let ops, ns_per_op = measure_record () in
  let record_pass = ns_per_op <= record_gate_ns in
  Printf.printf "  record_micro: %.1f ns/op over %d ops (gate %.0f ns, %s)\n%!" ns_per_op ops
    record_gate_ns
    (if record_pass then "pass" else "FAIL");
  let capacity = calibrate () in
  Printf.printf "  capacity: %.0f req/s closed-loop saturation\n%!" capacity;
  let curves =
    List.concat_map
      (fun arrival ->
        List.map
          (fun load ->
            let c = measure_curve ~capacity ~arrival ~load in
            Printf.printf
              "  %-7s load %.2f (%6.0f req/s): bulk p99 %8.2f ms  deadline p99 %8.2f ms  \
               p999 %8.2f ms  shed %d %s\n\
               %!"
              (arrival_name arrival) load c.cc_rate c.cc_bulk.p99_ms c.cc_dl.p99_ms
              c.cc_dl.p999_ms c.cc_shed
              (if c.cc_conserved then "" else "CONSERVATION FAIL");
            c)
          (load_factors ()))
      [ Poisson; Burst ]
  in
  let laned = measure_mix ~capacity ~lanes_on:true in
  let laneless = measure_mix ~capacity ~lanes_on:false in
  let ratio = laneless.mr_p99_ms /. laned.mr_p99_ms in
  let mix_pass = ratio >= mix_gate_ratio in
  Printf.printf
    "  lanes_vs_laneless @ 0.7 load (burst): laned p99 %.2f ms, laneless p99 %.2f ms — %.1fx \
     (gate %.1fx, %s)\n\
     %!"
    laned.mr_p99_ms laneless.mr_p99_ms ratio mix_gate_ratio
    (if mix_pass then "pass" else "FAIL");
  let soak = measure_soak () in
  Printf.printf
    "  soak: %d requests at %.0f req/s — completed %d cancelled %d exceptions %d suspended %d \
     (%s)\n\
     %!"
    soak.sk_requests soak.sk_rps soak.sk_st.Abp.Serve.completed soak.sk_st.Abp.Serve.cancelled
    soak.sk_st.Abp.Serve.exceptions soak.sk_st.Abp.Serve.suspended
    (if soak.sk_conserved then "conserved" else "CONSERVATION FAIL");
  let oc = open_out !json_file in
  output_string oc
    (to_json ~ops ~ns_per_op ~record_pass ~capacity ~curves ~laned ~laneless ~ratio ~mix_pass
       ~soak);
  close_out oc;
  validate !json_file;
  Printf.printf "wrote %s (schema ok)\n%!" !json_file;
  (* Conservation is exact and gates both modes; the perf gates (record
     cost, lane p99 ratio) only gate the full run — smoke cells are too
     small for stable percentiles. *)
  let failures =
    List.concat
      [
        (if List.for_all (fun c -> c.cc_conserved) curves then [] else [ "curves conservation" ]);
        (if soak.sk_conserved then [] else [ "soak conservation" ]);
        (if !smoke then []
         else
           List.concat
             [
               (if record_pass then [] else [ "record_micro ns/op" ]);
               (if mix_pass then [] else [ "lanes_vs_laneless p99 ratio" ]);
             ]);
      ]
  in
  if failures <> [] then begin
    Printf.eprintf "E32 gates FAILED: %s\n" (String.concat ", " failures);
    exit 1
  end
