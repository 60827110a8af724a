(* Regression tests for the CLI binaries' error paths: a raising task (or
   a bad flag) must exit nonzero with the error on stderr — previously it
   surfaced as an uncaught backtrace through the cmdliner evaluator.

   The test stanza declares ../bin/{hoodrun,simrun,hoodserve,mcheckrun}.exe as
   deps, so dune builds them before the suite runs.  They are found next
   to this test executable, not through the working directory, so the
   suite runs from any directory. *)

let bin_dir =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin")

(* [cmd] starts with the binary's file name, e.g. ["hoodrun.exe fib"].
   Its standard output goes to [stdout]. *)
let run_capturing ?(stdout = "/dev/null") cmd =
  let err = Filename.temp_file "abp_cli" ".stderr" in
  let code =
    Sys.command
      (Printf.sprintf "%s/%s >%s 2>%s" (Filename.quote bin_dir) cmd (Filename.quote stdout) err)
  in
  let ic = open_in err in
  let n = in_channel_length ic in
  let stderr_text = really_input_string ic n in
  close_in ic;
  Sys.remove err;
  (code, stderr_text)

let contains s affix =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* Run [cmd] with [--json FILE] appended and return the JSON text. *)
let run_json cmd =
  let json = Filename.temp_file "abp_cli" ".json" in
  let code, err = run_capturing (Printf.sprintf "%s --json %s" cmd json) in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string) "silent stderr" "" err;
  let ic = open_in json in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove json;
  s

(* The non-negative integer value of ["key":N] in a flat JSON object. *)
let json_int s key =
  let affix = Printf.sprintf "%S:" key in
  let n = String.length affix and m = String.length s in
  let rec find i =
    if i + n > m then Alcotest.failf "json has no %s" key
    else if String.sub s i n = affix then i + n
    else find (i + 1)
  in
  let start = find 0 in
  let rec stop j = if j < m && s.[j] >= '0' && s.[j] <= '9' then stop (j + 1) else j in
  int_of_string (String.sub s start (stop start - start))

let hoodrun_crash_exits_nonzero () =
  let code, err = run_capturing "hoodrun.exe crash -n 64 -p 2" in
  Alcotest.(check int) "exit code 1" 1 code;
  Alcotest.(check bool) "fatal prefix on stderr" true (contains err "hoodrun: fatal:");
  Alcotest.(check bool) "task exception message on stderr" true
    (contains err "crash workload task failure")

let hoodrun_success_exits_zero () =
  let code, err = run_capturing "hoodrun.exe fib -n 10 -p 2" in
  Alcotest.(check int) "exit code 0" 0 code;
  Alcotest.(check string) "silent stderr" "" err

let hoodrun_unknown_workload_exits_nonzero () =
  let code, err = run_capturing "hoodrun.exe nosuch -n 4 -p 1" in
  Alcotest.(check int) "exit code 1" 1 code;
  Alcotest.(check bool) "names the workload" true (contains err "unknown workload")

let simrun_unknown_dag_exits_nonzero () =
  let code, err = run_capturing "simrun.exe --dag nosuch -p 2" in
  Alcotest.(check int) "exit code 1" 1 code;
  Alcotest.(check bool) "fatal prefix on stderr" true (contains err "simrun: fatal:");
  Alcotest.(check bool) "names the dag family" true (contains err "unknown dag family")

let simrun_success_exits_zero () =
  let code, _ = run_capturing "simrun.exe --dag tree --depth 4 -p 4" in
  Alcotest.(check int) "exit code 0" 0 code

(* The adversary grammar is one module (Abp_kernel.Adversary_spec)
   shared by both binaries: the same spec string must be accepted by
   the simulator and the hardware harness, and the same malformed spec
   must be rejected by both with the offending parameter named. *)

let shared_adversary_spec_accepted_by_both () =
  let code, err =
    run_capturing "simrun.exe --dag tree --depth 4 -p 4 --adversary duty:on=2,off=1"
  in
  Alcotest.(check int) "simrun accepts duty:on=2,off=1" 0 code;
  Alcotest.(check string) "simrun silent stderr" "" err;
  let code, err =
    run_capturing "hoodrun.exe fib -n 12 -p 2 --adversary duty:on=2,off=1 --yield all"
  in
  Alcotest.(check int) "hoodrun accepts duty:on=2,off=1" 0 code;
  Alcotest.(check string) "hoodrun silent stderr" "" err

let shared_adversary_spec_rejected_by_both () =
  List.iter
    (fun (binary, cmd) ->
      let code, err = run_capturing cmd in
      Alcotest.(check int) (binary ^ " rejects unknown param") 1 code;
      Alcotest.(check bool) (binary ^ " names the bad parameter") true
        (contains err "does not take parameter"))
    [
      ("simrun", "simrun.exe --dag tree --depth 4 -p 4 --adversary duty:bogus=1");
      ("hoodrun", "hoodrun.exe fib -n 12 -p 2 --adversary duty:bogus=1");
    ];
  let code, err = run_capturing "hoodrun.exe fib -n 12 -p 2 --adversary nosuch" in
  Alcotest.(check int) "hoodrun rejects unknown adversary" 1 code;
  Alcotest.(check bool) "unknown adversary named" true (contains err "nosuch")

let hoodrun_mp_json_schema () =
  let s =
    run_json
      "hoodrun.exe fib -n 20 -p 2 --adversary duty:on=2,off=1 --yield random \
        --quantum 0.5"
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" key) true (contains s key))
    [
      {|"schema":"hoodrun/5"|};
      {|"adversary":"duty:on=2,off=1"|};
      {|"yield":"random"|};
      {|"pbar"|};
      {|"pbar_procs"|};
      {|"quanta"|};
      {|"suspended_seconds"|};
    ]

(* --deque is a closed enum: an unknown backend must exit 1 with a clean
   message listing the valid names (not a backtrace).  [wsm] is a deque
   but not a pool backend, so it is rejected like any other name. *)
let hoodrun_unknown_deque_exits_nonzero () =
  List.iter
    (fun bad ->
      let code, err =
        run_capturing (Printf.sprintf "hoodrun.exe fib -n 10 -p 2 --deque %s" bad)
      in
      Alcotest.(check int) (bad ^ ": exit code 1") 1 code;
      Alcotest.(check bool) (bad ^ ": names the bad backend") true
        (contains err (Printf.sprintf "unknown deque %S" bad));
      Alcotest.(check bool) (bad ^ ": lists the backends") true
        (contains err "(valid: abp, circular, locked)");
      Alcotest.(check bool) (bad ^ ": no backtrace") false (contains err "Raised at"))
    [ "nosuch"; "wsm" ]

(* hoodserve: the sharded serving CLI.  A k-shard run must exit 0 with a
   conserved, schema-stamped JSON summary; an invalid shard count must
   exit 1 with the fatal prefix, not a backtrace. *)
let hoodserve_sharded_json_schema () =
  let s =
    run_json
      "hoodserve.exe -p 1 --shards 3 --affinity key --clients 3 --requests 40 \
        --fib 10"
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" key) true (contains s key))
    [
      {|"schema":"hoodserve/7"|};
      {|"shards":3|};
      {|"affinity":"key"|};
      {|"conserved":true|};
      {|"cross_polls"|};
      {|"cross_shard_steals"|};
      {|"cross_stolen_tasks"|};
      {|"route_counts"|};
      {|"inbox_depths"|};
      {|"throughput_rps"|};
      {|"cpu_s"|};
      {|"await_depth":0|};
      {|"backend_late_us_p50":null|};
      {|"suspended":0|};
      {|"suspensions":0|};
      {|"resumes":0|};
      {|"suspended_peak":0|};
    ]

(* Await-heavy run: requests suspend on the simulated backend, and the
   JSON must show balanced fiber telemetry (suspensions = resumes =
   requests x depth) with nothing left suspended after drain. *)
let hoodserve_await_json_schema () =
  let s =
    run_json
      "hoodserve.exe -p 2 --clients 2 --requests 50 --fib 8 --await-depth 2 \
        --backend-ms 0.2"
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" key) true (contains s key))
    [
      {|"schema":"hoodserve/7"|};
      {|"await_depth":2|};
      {|"backend_ms":0.200|};
      {|"conserved":true|};
      {|"suspended":0|};
      (* counts race the backend (an await whose promise already resolved
         takes the fast path and never suspends), so exact balance is
         asserted programmatically in the fiber suite and E31; here we
         check only the keys are reported *)
      {|"suspensions":|};
      {|"resumes":|};
      {|"suspended_peak":|};
      (* one lateness sample per backend fulfil, so never null here *)
      {|"backend_late_us_p50":|};
      {|"backend_late_us_p99":|};
    ];
  Alcotest.(check bool) "backend lateness reported" false
    (contains s {|"backend_late_us_p50":null|})

(* Open-loop lanes run: requests arrive on a Poisson clock split across
   the bulk and deadline lanes, and the JSON must carry the per-lane
   latency blocks with log-histogram percentiles (p50/p99/p999). *)
let hoodserve_open_loop_lanes_json_schema () =
  let s =
    run_json
      "hoodserve.exe -p 2 --clients 2 --requests 60 --fib 8 --lanes \
        --lane-share 0.25 --open-loop --arrival poisson --rate 4000"
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" key) true (contains s key))
    [
      {|"schema":"hoodserve/7"|};
      {|"lanes":true|};
      {|"open_loop":true|};
      {|"arrival":"poisson"|};
      {|"rate_rps":4000.0|};
      {|"shed"|};
      {|"lane_latency"|};
      {|"bulk"|};
      {|"deadline"|};
      {|"p999_ms"|};
      {|"conserved":true|};
    ]

let hoodserve_hash_affinity_succeeds () =
  let code, err =
    run_capturing "hoodserve.exe -p 1 --shards 2 --affinity hash --clients 2 --requests 30 --fib 8"
  in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string) "silent stderr" "" err

let hoodserve_invalid_shards_exit_nonzero () =
  List.iter
    (fun (label, cmd) ->
      let code, err = run_capturing cmd in
      Alcotest.(check int) (label ^ " exits 1") 1 code;
      Alcotest.(check bool) (label ^ " fatal prefix on stderr") true
        (contains err "hoodserve: fatal:");
      Alcotest.(check bool) (label ^ " no backtrace") false (contains err "Raised at"))
    [
      ("shards 0", "hoodserve.exe --shards 0 --clients 1 --requests 1");
      ("shards 257", "hoodserve.exe --shards 257 --clients 1 --requests 1");
      ("await-depth -1", "hoodserve.exe --await-depth=-1 --clients 1 --requests 1");
      ("await-depth 65", "hoodserve.exe --await-depth 65 --clients 1 --requests 1");
      ("backend-ms -1", "hoodserve.exe --backend-ms=-1 --clients 1 --requests 1");
      ("backend-ms 1001", "hoodserve.exe --backend-ms 1001 --clients 1 --requests 1");
      ("rate 0", "hoodserve.exe --open-loop --rate 0 --clients 1 --requests 1");
      ( "rate 1e8",
        "hoodserve.exe --open-loop --rate 100000000 --clients 1 --requests 1" );
      ( "lane-share 1.5",
        "hoodserve.exe --lanes --lane-share 1.5 --clients 1 --requests 1" );
      ( "lane-share -0.1",
        "hoodserve.exe --lanes --lane-share=-0.1 --clients 1 --requests 1" );
    ];
  (* The range must be named in the message, not just the fatal prefix. *)
  let _, err = run_capturing "hoodserve.exe --open-loop --rate 0 --clients 1 --requests 1" in
  Alcotest.(check bool) "rate range named" true (contains err "rate in (0,1e7] required");
  let _, err =
    run_capturing "hoodserve.exe --lanes --lane-share 1.5 --clients 1 --requests 1"
  in
  Alcotest.(check bool) "lane-share range named" true
    (contains err "lane-share in [0,1] required");
  (* An unknown affinity policy is a cmdliner enum error: exit 124. *)
  let code, _ = run_capturing "hoodserve.exe --affinity nosuch --clients 1 --requests 1" in
  Alcotest.(check bool) "unknown affinity rejected" true (code <> 0)

(* An unknown scenario and an out-of-range tag width are usage errors
   (cmdliner's exit 124 with the option named), not uncaught
   exceptions (exit 125). *)
let mcheckrun_usage_errors () =
  List.iter
    (fun (label, cmd, named) ->
      let code, err = run_capturing cmd in
      Alcotest.(check int) (label ^ " exits 124") 124 code;
      Alcotest.(check bool) (label ^ " names the option") true (contains err named);
      Alcotest.(check bool) (label ^ " no internal error") false (contains err "internal error"))
    [
      ("unknown scenario", "mcheckrun.exe --scenario bogus", "--scenario");
      ("tag width 99", "mcheckrun.exe --tag-width 99", "0..31");
      ("tag width -1", "mcheckrun.exe --tag-width=-1", "0..31");
    ]

(* A scenario run on production code: the multiplicity deque's thief
   race (Wsm_deque), the Chase-Lev deque's six programs
   (Circular_deque), or the park/wake protocol (Parking). *)
let mcheckrun_verified scenario () =
  let out = Filename.temp_file "abp_cli" ".stdout" in
  let code, err = run_capturing ~stdout:out ("mcheckrun.exe --scenario " ^ scenario) in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check string) "silent stderr" "" err;
  Alcotest.(check bool) ("prints verified: " ^ text) true (contains text "verified")

(* One task per steal, as the JSON reports it, on every backend. *)
let hoodrun_json_one_task_per_steal () =
  List.iter
    (fun deque ->
      let s =
        run_json (Printf.sprintf "hoodrun.exe nqueens -n 10 -p 2 --deque %s" deque)
      in
      Alcotest.(check int) (deque ^ ": stolen_tasks = successful_steals")
        (json_int s "successful_steals") (json_int s "stolen_tasks");
      Alcotest.(check bool) (deque ^ ": steals <= attempts") true
        (json_int s "successful_steals" <= json_int s "steal_attempts"))
    [ "abp"; "circular"; "locked" ]

(* One task per cross-shard steal, and no more steals than polls. *)
let hoodserve_json_one_task_per_cross_steal () =
  let s =
    run_json
      "hoodserve.exe -p 1 --shards 2 --affinity key --clients 2 --requests 60 --fib 12"
  in
  Alcotest.(check bool) "conserved" true (contains s {|"conserved":true|});
  Alcotest.(check int) "cross_stolen_tasks = cross_shard_steals"
    (json_int s "cross_shard_steals") (json_int s "cross_stolen_tasks");
  Alcotest.(check bool) "cross steals <= cross polls" true
    (json_int s "cross_shard_steals" <= json_int s "cross_polls")

(* Deadline misses are known only when requests carry a deadline: with
   no --deadline the JSON reports them as null (total and per lane) and
   the console as n/a; with one they are counts, 0 here under a 10 s
   deadline. *)
let hoodserve_misses_null_without_deadline () =
  let run extra =
    let json = Filename.temp_file "abp_cli" ".json" in
    let out = Filename.temp_file "abp_cli" ".stdout" in
    let code, err =
      run_capturing ~stdout:out
        (Printf.sprintf "hoodserve.exe -p 1 --clients 1 --requests 40 --fib 8 --lanes%s --json %s"
           extra json)
    in
    Alcotest.(check int) "exit 0" 0 code;
    Alcotest.(check string) "silent stderr" "" err;
    let read f =
      let ic = open_in f in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove f;
      s
    in
    (read json, read out)
  in
  let json, console = run "" in
  Alcotest.(check bool) "total misses null" true (contains json {|"deadline_misses":null|});
  Alcotest.(check bool) "lane misses null" true (contains json {|"misses":null,"sojourn"|});
  Alcotest.(check bool) "no lane misses count" false (contains json {|"misses":0|});
  Alcotest.(check bool) "console n/a" true (contains console "deadline misses n/a");
  let json, console = run " --deadline 10" in
  Alcotest.(check int) "total misses counted" 0 (json_int json "deadline_misses");
  Alcotest.(check bool) "lane misses counted" false (contains json {|"misses":null|});
  Alcotest.(check bool) "console count" true (contains console "deadline misses 0 (bulk 0")

let tests =
  [
    Alcotest.test_case "hoodrun: crash workload exits 1 + stderr" `Quick
      hoodrun_crash_exits_nonzero;
    Alcotest.test_case "hoodrun: success exits 0" `Quick hoodrun_success_exits_zero;
    Alcotest.test_case "hoodrun: unknown workload exits 1" `Quick
      hoodrun_unknown_workload_exits_nonzero;
    Alcotest.test_case "simrun: unknown dag exits 1 + stderr" `Quick
      simrun_unknown_dag_exits_nonzero;
    Alcotest.test_case "simrun: success exits 0" `Quick simrun_success_exits_zero;
    Alcotest.test_case "shared adversary spec accepted by both" `Quick
      shared_adversary_spec_accepted_by_both;
    Alcotest.test_case "shared adversary spec rejected by both" `Quick
      shared_adversary_spec_rejected_by_both;
    Alcotest.test_case "hoodrun: mp json schema" `Quick hoodrun_mp_json_schema;
    Alcotest.test_case "hoodrun: unknown deque exits 1 + lists backends" `Quick
      hoodrun_unknown_deque_exits_nonzero;
    Alcotest.test_case "hoodrun: json reports one task per steal" `Quick
      hoodrun_json_one_task_per_steal;
    Alcotest.test_case "hoodserve: sharded json schema" `Quick hoodserve_sharded_json_schema;
    Alcotest.test_case "hoodserve: json reports one task per cross steal" `Quick
      hoodserve_json_one_task_per_cross_steal;
    Alcotest.test_case "hoodserve: await-heavy json schema" `Quick hoodserve_await_json_schema;
    Alcotest.test_case "hoodserve: open-loop lanes json schema" `Quick
      hoodserve_open_loop_lanes_json_schema;
    Alcotest.test_case "hoodserve: hash affinity runs" `Quick hoodserve_hash_affinity_succeeds;
    Alcotest.test_case "hoodserve: invalid shards exit 1" `Quick
      hoodserve_invalid_shards_exit_nonzero;
    Alcotest.test_case "hoodserve: deadline misses are null without --deadline" `Quick
      hoodserve_misses_null_without_deadline;
    Alcotest.test_case "mcheckrun: bad scenario or tag width is a usage error" `Quick
      mcheckrun_usage_errors;
    Alcotest.test_case "mcheckrun: wsm-thief verified" `Quick (mcheckrun_verified "wsm-thief");
    Alcotest.test_case "mcheckrun: parking verified" `Quick (mcheckrun_verified "parking");
    Alcotest.test_case "mcheckrun: circular verified" `Quick (mcheckrun_verified "circular");
  ]
