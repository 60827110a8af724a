(* E27: serving-layer benchmark — closed-loop load generator.

   C client domains each submit R short CPU-bound requests back to back
   (submit, wait for the outcome, submit the next: a closed loop, so the
   offered load is set by the client count) against two runtimes with
   the same number of worker domains:

     serve    Abp.Serve — bounded MPMC injector feeding the ABP
              work-stealing pool (idle workers poll the inbox after
              their own deque and a steal attempt)
     central  Abp.Central_pool — the work-sharing baseline: one
              mutex-protected queue for both submission and acquisition

   For every (system, p, clients) cell we record wall-clock throughput
   and the client-observed end-to-end latency distribution (p50 / p99
   via Abp.Descriptive.quantile), then emit machine-readable JSON
   (default BENCH_serve.json) with a stable schema, diffable build over
   build:

     dune exec bench/exp_serve.exe                    # full run
     dune exec bench/exp_serve.exe -- --smoke         # CI smoke
     dune exec bench/exp_serve.exe -- --json out.json

   The binary re-reads and schema-checks the JSON it wrote, exiting
   nonzero on a malformed document — CI relies on this. *)

let json_file = ref "BENCH_serve.json"
let smoke = ref false

let spec =
  [
    ("--json", Arg.Set_string json_file, "FILE  output file (default BENCH_serve.json)");
    ("--smoke", Arg.Set smoke, "  tiny sizes for CI schema checks");
  ]

let now = Unix.gettimeofday

(* Request body: sequential fib, a few microseconds of pure CPU.  Small
   on purpose — the cell under test is the submission path and the
   scheduler, not the workload. *)
let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

let fib_n () = if !smoke then 12 else 16
let requests_per_client () = if !smoke then 200 else 2_000
let process_counts = [ 1; 2; 4 ]
let client_counts () = if !smoke then [ 2; 4 ] else [ 1; 2; 4; 8 ]

type cell = {
  system : string;
  p : int;
  clients : int;
  requests : int;
  seconds : float;
  throughput_rps : float;
  p50_s : float;
  p99_s : float;
  checksum : int;  (* sum of request results: catches lost/wrong replies *)
}

let summarize ~system ~p ~clients ~seconds ~latencies ~checksum =
  let requests = Array.length latencies in
  {
    system;
    p;
    clients;
    requests;
    seconds;
    throughput_rps = float_of_int requests /. seconds;
    p50_s = Abp.Descriptive.quantile latencies 0.5;
    p99_s = Abp.Descriptive.quantile latencies 0.99;
    checksum;
  }

(* Each client records its own latencies; merged after the join. *)
let run_clients ~clients ~per_client ~(request : int -> int -> float * int) =
  let lat = Array.make_matrix clients per_client 0.0 in
  let sums = Array.make clients 0 in
  let t0 = now () in
  let ds =
    Array.init clients (fun c ->
        Domain.spawn (fun () ->
            for i = 0 to per_client - 1 do
              let seconds, value = request c i in
              lat.(c).(i) <- seconds;
              sums.(c) <- sums.(c) + value
            done))
  in
  Array.iter Domain.join ds;
  let seconds = now () -. t0 in
  let latencies = Array.concat (Array.to_list lat) in
  (seconds, latencies, Array.fold_left ( + ) 0 sums)

let measure_serve ~p ~clients =
  let n = fib_n () in
  let s = Abp.Shard.create ~processes:p ~inbox_capacity:256 ~shards:1 () in
  Fun.protect
    ~finally:(fun () -> Abp.Shard.shutdown s)
    (fun () ->
      let request _ _ =
        let t0 = now () in
        let t = Abp.Shard.submit s (fun () -> fib_seq n) in
        match Abp.Serve.await t with
        | Abp.Serve.Returned v -> (now () -. t0, v)
        | Abp.Serve.Raised e -> raise e
        | Abp.Serve.Cancelled _ -> failwith "exp_serve: request cancelled"
      in
      let seconds, latencies, checksum =
        run_clients ~clients ~per_client:(requests_per_client ()) ~request
      in
      let st = Abp.Shard.drain s in
      if st.Abp.Serve.accepted
         <> st.Abp.Serve.completed + st.Abp.Serve.cancelled + st.Abp.Serve.exceptions
      then failwith "exp_serve: drain invariant violated";
      summarize ~system:"serve" ~p ~clients ~seconds ~latencies ~checksum)

let measure_central ~p ~clients =
  let n = fib_n () in
  (* processes = p + 1: Central_pool reserves one slot for a Run caller
     that a serving setup never provides, so p + 1 yields p worker
     domains — the same worker count the serve cell gets. *)
  let pool = Abp.Central_pool.create ~processes:(p + 1) () in
  Fun.protect
    ~finally:(fun () -> Abp.Central_pool.shutdown pool)
    (fun () ->
      let request _ _ =
        let t0 = now () in
        let fut = Abp.Central_pool.spawn pool (fun () -> fib_seq n) in
        (* Wait without helping: a serving client is not a worker. *)
        while not (Abp.Central_pool.is_resolved fut) do
          Domain.cpu_relax ()
        done;
        (now () -. t0, Abp.Central_pool.force pool fut)
      in
      let seconds, latencies, checksum =
        run_clients ~clients ~per_client:(requests_per_client ()) ~request
      in
      summarize ~system:"central" ~p ~clients ~seconds ~latencies ~checksum)

(* ------------------------------------------------------------------ *)
(* JSON out (hand-rolled: fixed ASCII keys, numbers only).            *)

let f6 x = Printf.sprintf "%.6f" x

let cell_json r =
  Printf.sprintf
    {|    {"system":"%s","p":%d,"clients":%d,"requests":%d,"seconds":%s,"throughput_rps":%s,"p50_s":%s,"p99_s":%s,"checksum":%d}|}
    r.system r.p r.clients r.requests (f6 r.seconds) (f6 r.throughput_rps) (f6 r.p50_s)
    (f6 r.p99_s) r.checksum

let comparison_json (p, clients, serve_rps, central_rps) =
  Printf.sprintf {|    {"p":%d,"clients":%d,"serve_rps":%s,"central_rps":%s,"speedup":%s}|} p
    clients (f6 serve_rps) (f6 central_rps)
    (f6 (serve_rps /. central_rps))

let to_json cells comparisons =
  String.concat "\n"
    ([
       "{";
       {|  "schema": "abp-serve/1",|};
       Printf.sprintf {|  "mode": "%s",|} (if !smoke then "smoke" else "full");
       Printf.sprintf {|  "fib_n": %d,|} (fib_n ());
       Printf.sprintf {|  "requests_per_client": %d,|} (requests_per_client ());
       {|  "runs": [|};
     ]
    @ [ String.concat ",\n" (List.map cell_json cells) ]
    @ [ "  ],"; {|  "comparison": [|} ]
    @ [ String.concat ",\n" (List.map comparison_json comparisons) ]
    @ [ "  ]"; "}"; "" ])

let validate =
  Schema.check ~label:"BENCH_serve.json"
    ~required:
      [
        {|"schema": "abp-serve/1"|};
        {|"mode"|};
        {|"fib_n"|};
        {|"runs"|};
        {|"comparison"|};
        {|"system":"serve"|};
        {|"system":"central"|};
        {|"throughput_rps"|};
        {|"p50_s"|};
        {|"p99_s"|};
        {|"speedup"|};
      ]

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "exp_serve [--smoke] [--json FILE]";
  Printf.printf "== E27 serving throughput (%s mode, fib %d, %d requests/client) ==\n%!"
    (if !smoke then "smoke" else "full")
    (fib_n ()) (requests_per_client ());
  let cells = ref [] and comparisons = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun clients ->
          let sv = measure_serve ~p ~clients in
          let ct = measure_central ~p ~clients in
          if sv.checksum <> ct.checksum then begin
            Printf.eprintf "checksum mismatch at p=%d clients=%d: serve %d central %d\n" p clients
              sv.checksum ct.checksum;
            exit 1
          end;
          cells := !cells @ [ sv; ct ];
          comparisons := !comparisons @ [ (p, clients, sv.throughput_rps, ct.throughput_rps) ];
          Printf.printf
            "  p=%d clients=%d  serve %8.0f req/s (p99 %6.2f ms)   central %8.0f req/s (p99 \
             %6.2f ms)   speedup %.2fx\n\
             %!"
            p clients sv.throughput_rps (sv.p99_s *. 1e3) ct.throughput_rps (ct.p99_s *. 1e3)
            (sv.throughput_rps /. ct.throughput_rps))
        (client_counts ()))
    process_counts;
  let oc = open_out !json_file in
  output_string oc (to_json !cells !comparisons);
  close_out oc;
  validate !json_file;
  Printf.printf "wrote %s (schema ok)\n" !json_file
