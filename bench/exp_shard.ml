(* E30: sharded serving benchmark — 1 pool vs k micropools at a fixed
   total worker budget.

   C client domains each submit R short CPU-bound requests back to back
   (closed loop) against an Abp.Shard group of k micropools, k swept
   over [1; 2; 4] (smoke: [1; 2]) with total workers held constant, so
   the only variable is the topology: one central injector everyone
   fights over, or k injectors with rate-limited, locality-biased
   cross-shard stealing draining any imbalance.

   For every k we record wall-clock throughput, client-observed p50/p99
   latency, injector contention (inbox polls per completed task), and
   the cross-shard steal telemetry (polls, acquisitions, tasks moved,
   fraction of completed tasks that crossed a shard boundary).  The
   conservation invariant accepted = completed + cancelled + exceptions
   must hold on every shard of every cell — hard failure otherwise.
   A second section replays the k-shard sweep under the lib/mp duty
   adversary (per-shard controllers suspending whole shards on a 1 ms
   quantum), where the same invariant must survive.

   Headline (full mode, >= 4 cores only): k=4 throughput >= 1.5x the
   1-pool baseline at saturating load.  On smaller boxes the ratio is
   reported but not asserted — a 1-core CI host serializes the domains
   and the topology cannot matter.

     dune exec bench/exp_shard.exe                    # full run
     dune exec bench/exp_shard.exe -- --smoke         # CI smoke
     dune exec bench/exp_shard.exe -- --json out.json

   The binary re-reads and schema-checks the JSON it wrote, exiting
   nonzero on a malformed document — CI relies on this. *)

let json_file = ref "BENCH_shard.json"
let smoke = ref false

let spec =
  [
    ("--json", Arg.Set_string json_file, "FILE  output file (default BENCH_shard.json)");
    ("--smoke", Arg.Set smoke, "  tiny sizes for CI schema checks");
  ]

let now = Unix.gettimeofday

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

let fib_n () = if !smoke then 10 else 14
let requests_per_client () = if !smoke then 150 else 2_000
let total_workers () = if !smoke then 2 else 4
let clients () = if !smoke then 4 else 8
let shard_counts () = if !smoke then [ 1; 2 ] else [ 1; 2; 4 ]

type cell = {
  shards : int;
  p_per_shard : int;
  requests : int;
  seconds : float;
  throughput_rps : float;
  p50_s : float;
  p99_s : float;
  inject_polls_per_task : float;
  cross_polls : int;
  cross_shard_steals : int;
  cross_stolen_tasks : int;
  cross_fraction : float;
}

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* Invariants checked on every cell, measured or adversarial: per-shard
   conservation, and the cross-steal accounting (an acquisition implies
   a poll, and each acquisition moves exactly one task). *)
let check_invariants ~label s =
  if not (Abp.Shard.conserved s) then die "E30 %s: conservation invariant violated" label;
  let polls = Abp.Shard.cross_polls s
  and steals = Abp.Shard.cross_shard_steals s
  and tasks = Abp.Shard.cross_stolen_tasks s in
  if steals > polls then die "E30 %s: cross_shard_steals %d > cross_polls %d" label steals polls;
  if tasks <> steals then
    die "E30 %s: cross_stolen_tasks %d <> cross_shard_steals %d" label tasks steals

let measure ~shards =
  let total = total_workers () in
  let p_per_shard = max 1 (total / shards) in
  let n = fib_n () in
  let s =
    Abp.Shard.create ~processes:p_per_shard ~inbox_capacity:256 ~shards ()
  in
  let clients = clients () in
  let per_client = requests_per_client () in
  let lat = Array.make_matrix clients per_client 0.0 in
  let t0 = now () in
  let ds =
    Array.init clients (fun c ->
        Domain.spawn (fun () ->
            for i = 0 to per_client - 1 do
              let t0r = now () in
              let t = Abp.Shard.submit s (fun () -> fib_seq n) in
              (match Abp.Serve.await t with
              | Abp.Serve.Returned v ->
                  if v <> fib_seq n then die "E30: wrong reply at shards=%d" shards
              | Abp.Serve.Raised e -> raise e
              | Abp.Serve.Cancelled _ -> die "E30: request cancelled at shards=%d" shards);
              lat.(c).(i) <- now () -. t0r
            done))
  in
  Array.iter Domain.join ds;
  let seconds = now () -. t0 in
  let st = Abp.Shard.drain s in
  check_invariants ~label:(Printf.sprintf "shards=%d" shards) s;
  let inject_polls =
    let counters i = Abp.Pool.counters (Abp.Serve.pool (Abp.Shard.serve s i)) in
    Abp.Trace_counters.(get (sum (Array.concat (List.init shards counters))) inject_polls)
  in
  let cross_polls = Abp.Shard.cross_polls s in
  let cross_shard_steals = Abp.Shard.cross_shard_steals s in
  let cross_stolen_tasks = Abp.Shard.cross_stolen_tasks s in
  Abp.Shard.shutdown s;
  let latencies = Array.concat (Array.to_list lat) in
  let requests = Array.length latencies in
  let completed = st.Abp.Serve.completed in
  {
    shards;
    p_per_shard;
    requests;
    seconds;
    throughput_rps = float_of_int requests /. seconds;
    p50_s = Abp.Descriptive.quantile latencies 0.5;
    p99_s = Abp.Descriptive.quantile latencies 0.99;
    inject_polls_per_task = float_of_int inject_polls /. float_of_int (max 1 completed);
    cross_polls;
    cross_shard_steals;
    cross_stolen_tasks;
    cross_fraction = float_of_int cross_stolen_tasks /. float_of_int (max 1 completed);
  }

(* ------------------------------------------------------------------ *)
(* The duty adversary over the sharded group: one gate + controller per
   shard, each suspending that shard's whole pool on its own duty
   cycle, so shards go dark while siblings keep serving — exactly the
   imbalance cross-shard stealing exists to drain. *)

type adversary_cell = {
  a_shards : int;
  a_accepted : int;
  a_completed : int;
  a_cancelled : int;
  a_exceptions : int;
  a_cross_stolen : int;
}

let measure_adversary ~shards =
  let total = total_workers () in
  let p_per_shard = max 1 (total / shards) in
  let gates = Array.init shards (fun _ -> Abp.Gate.create ~num_workers:p_per_shard) in
  let s =
    Abp.Shard.create ~processes:p_per_shard ~inbox_capacity:256
      ~yield_kind:Abp.Pool.Yield_to_random
      ~gates:(Array.map Abp.Gate.hook gates)
      ~shards ()
  in
  let controllers =
    Array.init shards (fun i ->
        let adv =
          Abp.Adversary_spec.parse ~num_processes:p_per_shard
            ~rng:(Abp.Rng.create ~seed:(Int64.of_int (40 + i)) ())
            "duty:on=2,off=1"
        in
        let c =
          Abp.Controller.create ~quantum:1e-3 ~gate:gates.(i)
            ~pool:(Abp.Serve.pool (Abp.Shard.serve s i))
            adv
        in
        Abp.Controller.start c;
        c)
  in
  let submissions = if !smoke then 300 else 2_000 in
  let tickets =
    List.init submissions (fun i ->
        Abp.Shard.try_submit s (fun () ->
            if i mod 97 = 96 then failwith "boom" else fib_seq (fib_n ())))
  in
  (* Cancel a few; whether each cancel wins the race is immaterial. *)
  List.iteri
    (fun i t -> match t with Ok t when i mod 11 = 0 -> ignore (Abp.Serve.cancel t) | _ -> ())
    tickets;
  let st = Abp.Shard.drain s in
  Array.iter Abp.Controller.stop controllers;
  check_invariants ~label:(Printf.sprintf "adversary shards=%d" shards) s;
  let a_cross_stolen = Abp.Shard.cross_stolen_tasks s in
  Abp.Shard.shutdown s;
  if st.Abp.Serve.completed = 0 then die "E30 adversary shards=%d: no progress" shards;
  {
    a_shards = shards;
    a_accepted = st.Abp.Serve.accepted;
    a_completed = st.Abp.Serve.completed;
    a_cancelled = st.Abp.Serve.cancelled;
    a_exceptions = st.Abp.Serve.exceptions;
    a_cross_stolen;
  }

(* ------------------------------------------------------------------ *)
(* JSON out (hand-rolled: fixed ASCII keys, numbers only).            *)

let f6 x = Printf.sprintf "%.6f" x

let cell_json r =
  Printf.sprintf
    {|    {"shards":%d,"p_per_shard":%d,"requests":%d,"seconds":%s,"throughput_rps":%s,"p50_s":%s,"p99_s":%s,"inject_polls_per_task":%s,"cross_polls":%d,"cross_shard_steals":%d,"cross_stolen_tasks":%d,"cross_fraction":%s,"conserved":true}|}
    r.shards r.p_per_shard r.requests (f6 r.seconds) (f6 r.throughput_rps) (f6 r.p50_s)
    (f6 r.p99_s)
    (f6 r.inject_polls_per_task)
    r.cross_polls r.cross_shard_steals r.cross_stolen_tasks (f6 r.cross_fraction)

let adversary_json a =
  Printf.sprintf
    {|    {"shards":%d,"adversary":"duty:on=2,off=1","accepted":%d,"completed":%d,"cancelled":%d,"exceptions":%d,"cross_stolen_tasks":%d,"conserved":true}|}
    a.a_shards a.a_accepted a.a_completed a.a_cancelled a.a_exceptions a.a_cross_stolen

let headline_json ~baseline ~best ~k ~checked ~pass =
  Printf.sprintf
    {|  "headline": {"baseline_rps":%s,"k_shard_rps":%s,"k":%d,"speedup":%s,"checked":%b,"pass":%b}|}
    (f6 baseline) (f6 best) k
    (f6 (best /. baseline))
    checked pass

let to_json cells adversaries headline =
  String.concat "\n"
    ([
       "{";
       {|  "schema": "abp-shard/2",|};
       Printf.sprintf {|  "mode": "%s",|} (if !smoke then "smoke" else "full");
       Printf.sprintf {|  "fib_n": %d,|} (fib_n ());
       Printf.sprintf {|  "requests_per_client": %d,|} (requests_per_client ());
       Printf.sprintf {|  "total_workers": %d,|} (total_workers ());
       {|  "runs": [|};
     ]
    @ [ String.concat ",\n" (List.map cell_json cells) ]
    @ [ "  ],"; {|  "adversary": [|} ]
    @ [ String.concat ",\n" (List.map adversary_json adversaries) ]
    @ [ "  ],"; headline ]
    @ [ "}"; "" ])

let validate =
  Schema.check ~label:"BENCH_shard.json"
    ~required:
      [
        {|"schema": "abp-shard/2"|};
        {|"mode"|};
        {|"total_workers"|};
        {|"runs"|};
        {|"adversary"|};
        {|"headline"|};
        {|"throughput_rps"|};
        {|"inject_polls_per_task"|};
        {|"cross_fraction"|};
        {|"cross_shard_steals"|};
        {|"conserved":true|};
        {|"speedup"|};
      ]

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "exp_shard [--smoke] [--json FILE]";
  Printf.printf "== E30 sharded serving (%s mode, fib %d, %d requests/client, %d workers) ==\n%!"
    (if !smoke then "smoke" else "full")
    (fib_n ())
    (requests_per_client ())
    (total_workers ());
  let cells =
    List.map
      (fun k ->
        let c = measure ~shards:k in
        Printf.printf
          "  shards=%d (p=%d)  %8.0f req/s  p99 %6.2f ms  inbox polls/task %6.1f  cross %d/%d \
           (%.3f of tasks)\n\
           %!"
          c.shards c.p_per_shard c.throughput_rps (c.p99_s *. 1e3) c.inject_polls_per_task
          c.cross_stolen_tasks c.cross_polls c.cross_fraction;
        c)
      (shard_counts ())
  in
  Printf.printf "-- duty adversary (per-shard controllers) --\n%!";
  let adversaries =
    List.map
      (fun k ->
        let a = measure_adversary ~shards:k in
        Printf.printf "  shards=%d  accepted %d = completed %d + cancelled %d + exceptions %d  \
                       cross %d\n%!"
          a.a_shards a.a_accepted a.a_completed a.a_cancelled a.a_exceptions a.a_cross_stolen;
        a)
      (shard_counts ())
  in
  let baseline = (List.hd cells).throughput_rps in
  let best_cell = List.nth cells (List.length cells - 1) in
  let speedup = best_cell.throughput_rps /. baseline in
  (* The 1.5x headline needs real parallel hardware AND the k >= 4
     sweep: assert it only there, report it everywhere. *)
  let checked =
    (not !smoke) && best_cell.shards >= 4 && Domain.recommended_domain_count () >= 4
  in
  let pass = speedup >= 1.5 in
  Printf.printf "headline: %d-shard %.0f req/s vs 1-pool %.0f req/s = %.2fx%s\n%!"
    best_cell.shards best_cell.throughput_rps baseline speedup
    (if checked then "" else " (reported only: smoke mode or < 4 cores)");
  let headline =
    headline_json ~baseline ~best:best_cell.throughput_rps ~k:best_cell.shards ~checked ~pass
  in
  let oc = open_out !json_file in
  output_string oc (to_json cells adversaries headline);
  close_out oc;
  validate !json_file;
  Printf.printf "wrote %s (schema ok)\n" !json_file;
  if checked && not pass then begin
    Printf.eprintf "E30 headline FAILED: %d-shard speedup %.2fx < 1.5x\n" best_cell.shards
      speedup;
    exit 1
  end
