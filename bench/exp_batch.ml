(* E28: batched work transfer — steal-half vs single steals, lazy
   binary splitting vs fixed grains, and batched injector drain.

   Three sections, each comparing the PR's batching machinery against
   the classic configuration on the same workload:

   - steal: fib on the Circular deque with batch off vs batch 8, at
     several process counts.  Batching must not change the result, and
     a batch-on run reports [stolen_tasks >= successful_steals].
   - pfor: a parallel_for checksum under fixed grains (16, 128) vs lazy
     binary splitting (no grain).  All policies must produce the same
     checksum; the [pushes] column shows how many tasks each policy
     spawned (lazy ~ 0 at P = 1).
   - serve: the serving layer under multi-producer load with batch off
     vs batch 8; a batched run reports its [inject_batches].

   Emits machine-readable JSON (default BENCH_batch.json), then re-reads
   and schema-checks it, exiting nonzero on a malformed document or a
   failed cross-check — CI relies on this:

     dune exec bench/exp_batch.exe                     # full run
     dune exec bench/exp_batch.exe -- --smoke          # CI smoke
     dune exec bench/exp_batch.exe -- --json out.json *)

let json_file = ref "BENCH_batch.json"
let smoke = ref false
let repeats = ref 3

let spec =
  [
    ("--json", Arg.Set_string json_file, "FILE  output file (default BENCH_batch.json)");
    ("--smoke", Arg.Set smoke, "  tiny sizes for CI schema checks");
    ("--repeats", Arg.Set_int repeats, "N  timed repetitions per measurement (default 3)");
  ]

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let minimum xs = List.fold_left min infinity xs
let processes () = if !smoke then [ 1; 2 ] else [ 1; 2; 4 ]
let batches = [ 0; 8 ]

(* ------------------------------------------------------------------ *)
(* Section 1: single vs batched stealing on fib.                      *)

type steal_result = {
  s_n : int;
  s_p : int;
  s_batch : int;
  s_median : float;
  s_min : float;
  s_attempts : int;
  s_successes : int;
  s_stolen : int;
  s_batch_steals : int;
  s_max_batch : int;
  s_result : int;
}

let measure_steal n p batch =
  let pool = Abp.Pool.create ~processes:p ~deque_impl:Abp.Pool.Circular ~batch () in
  let timings = ref [] in
  let value = ref 0 in
  Fun.protect
    ~finally:(fun () -> Abp.Pool.shutdown pool)
    (fun () ->
      for _ = 1 to !repeats do
        let t0 = now () in
        value := Abp.Pool.run pool (fun () -> Abp.Par.fib n);
        timings := (now () -. t0) :: !timings
      done);
  let t = Abp.Trace.Counters.sum (Abp.Pool.counters pool) in
  {
    s_n = n;
    s_p = p;
    s_batch = batch;
    s_median = median !timings;
    s_min = minimum !timings;
    s_attempts = Abp.Trace.Counters.(get t steal_attempts);
    s_successes = Abp.Trace.Counters.(get t successful_steals);
    s_stolen = Abp.Trace.Counters.(get t stolen_tasks);
    s_batch_steals = Abp.Trace.Counters.(get t batch_steals);
    s_max_batch = Abp.Trace.Counters.(get t max_steal_batch);
    s_result = !value;
  }

let run_steal () =
  let n = if !smoke then 20 else 30 in
  List.concat_map
    (fun p -> List.map (fun batch -> measure_steal n p batch) batches)
    (processes ())

(* ------------------------------------------------------------------ *)
(* Section 2: fixed-grain vs lazy-splitting parallel_for.             *)

type pfor_result = {
  f_policy : string;
  f_n : int;
  f_p : int;
  f_median : float;
  f_min : float;
  f_pushes : int;
  f_checksum : int;
}

let measure_pfor policy grain n p =
  let pool = Abp.Pool.create ~processes:p ~deque_impl:Abp.Pool.Circular () in
  let timings = ref [] in
  let out = Array.make n 0 in
  Fun.protect
    ~finally:(fun () -> Abp.Pool.shutdown pool)
    (fun () ->
      for _ = 1 to !repeats do
        let t0 = now () in
        Abp.Pool.run pool (fun () ->
            Abp.Par.parallel_for ?grain ~lo:0 ~hi:n (fun i -> out.(i) <- (i * i) mod 97));
        timings := (now () -. t0) :: !timings
      done);
  let t = Abp.Trace.Counters.sum (Abp.Pool.counters pool) in
  {
    f_policy = policy;
    f_n = n;
    f_p = p;
    f_median = median !timings;
    f_min = minimum !timings;
    f_pushes = Abp.Trace.Counters.(get t pushes);
    f_checksum = Array.fold_left ( + ) 0 out;
  }

let run_pfor () =
  let n = if !smoke then 50_000 else 2_000_000 in
  List.concat_map
    (fun p ->
      [
        measure_pfor "grain16" (Some 16) n p;
        measure_pfor "grain128" (Some 128) n p;
        measure_pfor "lazy" None n p;
      ])
    (processes ())

(* ------------------------------------------------------------------ *)
(* Section 3: serving layer, single vs batched injector drain.        *)

type serve_result = {
  v_p : int;
  v_batch : int;
  v_requests : int;
  v_seconds : float;
  v_req_per_s : float;
  v_inject_polls : int;
  v_inject_tasks : int;
  v_inject_batches : int;
  v_completed : int;
}

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

let measure_serve p batch =
  let requests = if !smoke then 1_000 else 10_000 in
  let producers = 2 in
  let per = requests / producers in
  let s = Abp.Shard.create ~processes:p ~batch ~inbox_capacity:512 ~shards:1 () in
  let t0 = now () in
  let ds =
    Array.init producers (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              ignore (Abp.Shard.submit s (fun () -> Sys.opaque_identity (fib_seq 15)))
            done))
  in
  Array.iter Domain.join ds;
  let st = Abp.Shard.drain s in
  let elapsed = now () -. t0 in
  let t = Abp.Trace.Counters.sum (Abp.Pool.counters (Abp.Serve.pool (Abp.Shard.serve s 0))) in
  Abp.Shard.shutdown s;
  {
    v_p = p;
    v_batch = batch;
    v_requests = producers * per;
    v_seconds = elapsed;
    v_req_per_s = float_of_int st.Abp.Serve.completed /. elapsed;
    v_inject_polls = Abp.Trace.Counters.(get t inject_polls);
    v_inject_tasks = Abp.Trace.Counters.(get t inject_tasks);
    v_inject_batches = Abp.Trace.Counters.(get t inject_batches);
    v_completed = st.Abp.Serve.completed;
  }

let run_serve () =
  List.concat_map (fun p -> List.map (fun batch -> measure_serve p batch) batches) (processes ())

(* ------------------------------------------------------------------ *)
(* Cross-checks: batching and lazy splitting must not change answers. *)

let cross_check steal pfor serve =
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "E28 cross-check FAILED: %s\n" m; exit 1) fmt in
  (match steal with
  | [] -> fail "no steal results"
  | r0 :: rest ->
      List.iter
        (fun r -> if r.s_result <> r0.s_result then fail "fib result differs across batch configs")
        rest;
      List.iter
        (fun r ->
          if r.s_stolen < r.s_successes then fail "stolen_tasks < successful_steals";
          if r.s_batch = 0 && r.s_stolen <> r.s_successes then
            fail "batch off but stolen_tasks <> successful_steals")
        steal);
  (match pfor with
  | [] -> fail "no pfor results"
  | r0 :: rest ->
      List.iter
        (fun r -> if r.f_checksum <> r0.f_checksum then fail "parallel_for checksum differs across policies")
        rest);
  match serve with
  | [] -> fail "no serve results"
  | _ ->
      List.iter
        (fun r ->
          if r.v_completed <> r.v_requests then
            fail "serve completed %d of %d requests" r.v_completed r.v_requests;
          if r.v_batch = 0 && r.v_inject_batches <> 0 then
            fail "batch off but inject_batches > 0")
        serve

(* ------------------------------------------------------------------ *)
(* JSON out (hand-rolled: fixed ASCII keys, numbers only).            *)

let f6 x = Printf.sprintf "%.6f" x

let steal_json r =
  Printf.sprintf
    {|    {"workload":"fib","n":%d,"p":%d,"batch":%d,"deque":"circular","seconds_median":%s,"seconds_min":%s,"steal_attempts":%d,"successful_steals":%d,"stolen_tasks":%d,"batch_steals":%d,"max_steal_batch":%d,"result":%d}|}
    r.s_n r.s_p r.s_batch (f6 r.s_median) (f6 r.s_min) r.s_attempts r.s_successes r.s_stolen
    r.s_batch_steals r.s_max_batch r.s_result

let pfor_json r =
  Printf.sprintf
    {|    {"policy":"%s","n":%d,"p":%d,"seconds_median":%s,"seconds_min":%s,"pushes":%d,"checksum":%d}|}
    r.f_policy r.f_n r.f_p (f6 r.f_median) (f6 r.f_min) r.f_pushes r.f_checksum

let serve_json r =
  Printf.sprintf
    {|    {"p":%d,"batch":%d,"requests":%d,"seconds":%s,"req_per_s":%.1f,"inject_polls":%d,"inject_tasks":%d,"inject_batches":%d,"completed":%d}|}
    r.v_p r.v_batch r.v_requests (f6 r.v_seconds) r.v_req_per_s r.v_inject_polls r.v_inject_tasks
    r.v_inject_batches r.v_completed

let to_json steal pfor serve =
  String.concat "\n"
    ([
       "{";
       {|  "schema": "abp-batch/1",|};
       Printf.sprintf {|  "mode": "%s",|} (if !smoke then "smoke" else "full");
       Printf.sprintf {|  "repeats": %d,|} !repeats;
       {|  "steal": [|};
     ]
    @ [ String.concat ",\n" (List.map steal_json steal) ]
    @ [ "  ],"; {|  "pfor": [|} ]
    @ [ String.concat ",\n" (List.map pfor_json pfor) ]
    @ [ "  ],"; {|  "serve": [|} ]
    @ [ String.concat ",\n" (List.map serve_json serve) ]
    @ [ "  ]"; "}"; "" ])

let validate =
  Schema.check ~label:"BENCH_batch.json"
    ~required:
      [
        {|"schema": "abp-batch/1"|};
        {|"mode"|};
        {|"repeats"|};
        {|"steal"|};
        {|"pfor"|};
        {|"serve"|};
        {|"stolen_tasks"|};
        {|"batch_steals"|};
        {|"policy":"lazy"|};
        {|"inject_batches"|};
        {|"seconds_median"|};
      ]

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "exp_batch [--smoke] [--json FILE] [--repeats N]";
  if !repeats < 1 then begin
    Printf.eprintf "--repeats must be >= 1\n";
    exit 2
  end;
  Printf.printf "== E28 batched transfer (%s mode, %d repeats) ==\n%!"
    (if !smoke then "smoke" else "full")
    !repeats;
  let steal = run_steal () in
  List.iter
    (fun r ->
      Printf.printf "  fib(%d) p=%d batch=%d  %.4fs  steals %d/%d moved %d (batched %d, max %d)\n"
        r.s_n r.s_p r.s_batch r.s_median r.s_successes r.s_attempts r.s_stolen r.s_batch_steals
        r.s_max_batch)
    steal;
  let pfor = run_pfor () in
  List.iter
    (fun r ->
      Printf.printf "  pfor(%d) p=%d %-8s  %.4fs  pushes %d\n" r.f_n r.f_p r.f_policy r.f_median
        r.f_pushes)
    pfor;
  let serve = run_serve () in
  List.iter
    (fun r ->
      Printf.printf "  serve p=%d batch=%d  %d reqs in %.4fs (%.0f req/s)  inject %d/%d (%d batched)\n"
        r.v_p r.v_batch r.v_requests r.v_seconds r.v_req_per_s r.v_inject_tasks r.v_inject_polls
        r.v_inject_batches)
    serve;
  cross_check steal pfor serve;
  let oc = open_out !json_file in
  output_string oc (to_json steal pfor serve);
  close_out oc;
  validate !json_file;
  Printf.printf "wrote %s (schema ok)\n" !json_file
