(* hoodserve: drive the serving layer from the command line — a load
   generator over Abp.Shard (k micropools; k = 1 is the classic
   single-micropool topology) with the full service report (admission
   counters, routing histogram, cross-shard steal telemetry, inbox
   gauges, queue/run and per-lane sojourn latency) and optional
   telemetry.

   Two generator modes:
   - closed loop (default): each client domain submits and awaits one
     request at a time, so offered load adapts to service rate;
   - open loop (--open-loop): arrivals follow a stochastic process
     (--arrival poisson|burst at --rate req/s total) independent of
     completions — the regime where queueing delay and tail latency
     actually show — and a full inbox sheds the arrival instead of
     blocking it.

   Examples:
     hoodserve -p 4 --clients 8 --requests 2000
     hoodserve -p 2 --shards 4 --affinity key --clients 8
     hoodserve -p 4 --lanes --lane-share 0.2 --clients 4
     hoodserve -p 4 --open-loop --arrival burst --rate 20000 --lanes
     hoodserve -p 4 --clients 4 --deadline 0.05      # drop slow queuers
     hoodserve -p 4 --clients 4 --trace serve.json   # chrome://tracing *)

open Cmdliner

let fatal_guard name f =
  try f ()
  with e ->
    Printf.eprintf "%s: fatal: %s\n%!" name (Printexc.to_string e);
    exit 1

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

type affinity = Hash | Key

let affinity_name = function Hash -> "hash" | Key -> "key"

type arrival = Poisson | Burst

let arrival_name = function Poisson -> "poisson" | Burst -> "burst"

let json_latency = function
  | None -> "null"
  | Some (l : Abp.Serve.latency) ->
      Printf.sprintf
        {|{"samples":%d,"mean_ms":%.4f,"p50_ms":%.4f,"p90_ms":%.4f,"p99_ms":%.4f,"p999_ms":%.4f,"max_ms":%.4f}|}
        l.Abp.Serve.samples (l.Abp.Serve.mean *. 1e3) (l.Abp.Serve.p50 *. 1e3)
        (l.Abp.Serve.p90 *. 1e3) (l.Abp.Serve.p99 *. 1e3) (l.Abp.Serve.p999 *. 1e3)
        (l.Abp.Serve.max *. 1e3)

let json_lane ~(ls : Abp.Serve.lane_stats) ~latency =
  Printf.sprintf
    {|{"accepted":%d,"completed":%d,"rejected":%d,"cancelled":%d,"exceptions":%d,"misses":%d,"sojourn":%s}|}
    ls.Abp.Serve.lane_accepted ls.Abp.Serve.lane_completed ls.Abp.Serve.lane_rejected
    ls.Abp.Serve.lane_cancelled ls.Abp.Serve.lane_exceptions ls.Abp.Serve.lane_misses
    (json_latency latency)

(* Hand-rolled JSON on the model of the bench executables: no external
   dependency, schema-stamped for the CI artifact check. *)
let write_json file ~p ~shards ~affinity ~clients ~requests ~fib ~await_depth ~backend_ms
    ~use_lanes ~lane_share ~open_loop ~arrival ~rate ~shed ~elapsed ~throughput ~cpu_s
    ~(st : Abp.Serve.stats) ~conserved ~cross ~fiber ~late ~routes ~depths ~lane_json
    ~deadline_misses =
  let cross_polls, cross_steals, cross_tasks = cross in
  let suspensions, resumes, suspended_peak = fiber in
  let late_p50, late_p99 =
    match late with
    | Some (p50, p99) -> (Printf.sprintf "%.2f" p50, Printf.sprintf "%.2f" p99)
    | None -> ("null", "null")
  in
  let int_array a =
    "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]"
  in
  let oc = open_out file in
  Printf.fprintf oc
    {|{"schema":"hoodserve/6","p":%d,"shards":%d,"affinity":"%s","clients":%d,"requests":%d,"fib":%d,"await_depth":%d,"backend_ms":%.3f,"lanes":%b,"lane_share":%.3f,"open_loop":%b,"arrival":"%s","rate_rps":%.1f,"shed":%d,"elapsed_s":%.6f,"throughput_rps":%.1f,"cpu_s":%.3f,"accepted":%d,"completed":%d,"rejected":%d,"cancelled":%d,"exceptions":%d,"suspended":%d,"conserved":%b,"deadline_misses":%d,"cross_polls":%d,"cross_shard_steals":%d,"cross_stolen_tasks":%d,"suspensions":%d,"resumes":%d,"suspended_peak":%d,"backend_late_us_p50":%s,"backend_late_us_p99":%s,"route_counts":%s,"inbox_depths":%s,"lane_latency":%s}|}
    p shards (affinity_name affinity) clients requests fib await_depth backend_ms use_lanes
    lane_share open_loop
    (if open_loop then arrival_name arrival else "closed")
    rate shed elapsed throughput cpu_s st.Abp.Serve.accepted st.Abp.Serve.completed
    st.Abp.Serve.rejected st.Abp.Serve.cancelled st.Abp.Serve.exceptions st.Abp.Serve.suspended
    conserved deadline_misses cross_polls cross_steals cross_tasks suspensions resumes
    suspended_peak late_p50 late_p99 (int_array routes) (int_array depths) lane_json;
  output_char oc '\n';
  close_out oc

(* Process CPU seconds so far, user + system, over every domain. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Every shard's per-worker counters in one aggregate: the counter
   kinds sum the event counts and max the suspended peak (peaks of
   different pools are concurrent gauges). *)
let shard_totals s shards =
  let counters i = Abp.Pool.counters (Abp.Serve.pool (Abp.Shard.serve s i)) in
  Abp.Trace_counters.sum (Array.concat (List.init shards counters))

(* Burst arrivals: a two-state MMPP — ON at 3x the nominal rate for
   ~10ms, OFF (silent) for ~20ms — so the long-run average offered load
   equals the nominal rate while individual bursts overrun the service
   rate and build real queues. *)
let on_dwell_s = 0.010

let off_dwell_s = 0.020

let run p shards affinity clients requests fib await_depth backend_ms inbox deadline
    use_lanes lane_share open_loop arrival rate trace_file json_file =
 fatal_guard "hoodserve" @@ fun () ->
  if clients < 1 then raise (Invalid_argument "clients >= 1 required");
  if shards < 1 then raise (Invalid_argument "shards >= 1 required");
  if shards > 256 then raise (Invalid_argument "shards <= 256 required");
  if await_depth < 0 || await_depth > 64 then
    raise (Invalid_argument "await-depth in [0,64] required");
  if backend_ms < 0.0 || backend_ms > 1000.0 then
    raise (Invalid_argument "backend-ms in [0,1000] required");
  if lane_share < 0.0 || lane_share > 1.0 then
    raise (Invalid_argument "lane-share in [0,1] required");
  if rate <= 0.0 || rate > 1e7 then raise (Invalid_argument "rate in (0,1e7] required");
  let sinks =
    Option.map
      (fun _ ->
        Array.init shards (fun _ ->
            Abp.Trace.Sink.create ~ring_capacity:(1 lsl 16) ~workers:p ()))
      trace_file
  in
  let s = Abp.Shard.create ~processes:p ~inbox_capacity:inbox ?traces:sinks ~shards () in
  (* With --await-depth > 0 each request suspends on a simulated
     downstream backend between compute slices: the body awaits a
     promise fulfilled by an external backend domain ~backend_ms later,
     so the worker serves other requests while this one is parked. *)
  let backend = if await_depth > 0 then Some (Abp.Backend.create ~workers:2 ()) else None in
  let backend_s = backend_ms /. 1000.0 in
  let body () =
    let v = ref (fib_seq fib) in
    (match backend with
    | Some b ->
        for _ = 1 to await_depth do
          v := Abp.Fiber.await (Abp.Backend.call b ~delay:backend_s !v)
        done
    | None -> ());
    !v
  in
  let lane_of rng =
    if use_lanes && Abp.Rng.bernoulli rng ~p:lane_share then (Abp.Serve.Deadline : Abp.Serve.lane)
    else Abp.Serve.Bulk
  in
  let completed = Atomic.make 0 and dropped = Atomic.make 0 and shed = Atomic.make 0 in
  let t0 = Abp.Clock.now () and cpu0 = cpu_seconds () in
  let ds =
    Array.init clients (fun client ->
        Domain.spawn (fun () ->
            (* [Key]: pin this client's whole request stream to the shard
               of its client id; [Hash]: spread requests shard-by-shard
               (the keyless round-robin route). *)
            let key = match affinity with Key -> Some client | Hash -> None in
            let rng = Abp.Rng.create ~seed:(Int64.of_int (0xA441 + (client * 7919))) () in
            if not open_loop then
              for _ = 1 to requests do
                let t = Abp.Shard.submit s ?key ~lane:(lane_of rng) ?deadline body in
                match Abp.Serve.await t with
                | Abp.Serve.Returned _ -> Atomic.incr completed
                | Abp.Serve.Raised e -> raise e
                | Abp.Serve.Cancelled _ -> Atomic.incr dropped
              done
            else begin
              (* Open loop: arrivals are scheduled on the wall clock,
                 independent of completions; a full inbox sheds the
                 arrival (counts in [rejected] and [shed]) rather than
                 back-pressuring the arrival process. *)
              let per_domain_mean_ns = 1e9 *. float_of_int clients /. rate in
              let next = ref (Abp.Clock.now ()) in
              let on = ref false and dwell_until = ref !next in
              for _ = 1 to requests do
                let gap_ns =
                  match arrival with
                  | Poisson -> Abp.Rng.exponential rng ~mean:per_domain_mean_ns
                  | Burst ->
                      if !next >= !dwell_until then begin
                        on := not !on;
                        dwell_until :=
                          !next + Abp.Clock.of_s (if !on then on_dwell_s else off_dwell_s)
                      end;
                      let burst_gap =
                        Abp.Rng.exponential rng ~mean:(per_domain_mean_ns /. 3.0)
                      in
                      if !on then burst_gap
                      else float_of_int (!dwell_until - !next) +. burst_gap
                in
                next := !next + int_of_float gap_ns;
                Abp.Clock.sleep_until !next;
                match Abp.Shard.try_submit s ?key ~lane:(lane_of rng) ?deadline body with
                | Ok _ -> ()
                | Error _ -> Atomic.incr shed
              done
            end))
  in
  Array.iter Domain.join ds;
  let arrivals_done = Abp.Clock.now () and cpu_arrivals = cpu_seconds () in
  let st = Abp.Shard.drain s in
  Option.iter Abp.Backend.stop backend;
  if open_loop then Atomic.set completed st.Abp.Serve.completed;
  (* Closed loop: clients awaited every request, so the interesting
     elapsed time excludes the (trivial) drain.  Open loop: the queue
     built by the arrival process drains after the generators exit, and
     that service time belongs in the denominator. *)
  let elapsed =
    Abp.Clock.to_s ((if open_loop then Abp.Clock.now () else arrivals_done) - t0)
  in
  let throughput = float_of_int (Atomic.get completed) /. elapsed in
  let cpu_s = (if open_loop then cpu_seconds () else cpu_arrivals) -. cpu0 in
  let totals = shard_totals s shards in
  let count = Abp.Trace_counters.get totals in
  Format.printf
    "%d clients x %d requests (fib %d%s%s) on %d shard(s) x P=%d (affinity %s) in %.3fs  %.0f \
     req/s@."
    clients requests fib
    (if await_depth > 0 then Printf.sprintf ", await depth %d x %.1fms" await_depth backend_ms
     else "")
    (if open_loop then
       Printf.sprintf ", open-loop %s @ %.0f req/s" (arrival_name arrival) rate
     else "")
    shards p (affinity_name affinity) elapsed throughput;
  (* The price of idle workers that spin and yield before they park:
     process CPU over the same interval, against the wall clock. *)
  Format.printf "cpu %.3fs user+sys (%.2f x wall), %d parks@." cpu_s (cpu_s /. elapsed)
    (count Abp.Trace_counters.parks);
  if Atomic.get dropped > 0 then
    Format.printf "dropped %d requests (deadline/cancel)@." (Atomic.get dropped);
  if Atomic.get shed > 0 then
    Format.printf "shed %d arrivals (open-loop, inbox full)@." (Atomic.get shed);
  Format.printf "%a" Abp.Shard.pp_report s;
  let conserved = Abp.Shard.conserved s in
  let cross =
    Abp.Trace_counters.(count cross_polls, count cross_shard_steals, count cross_stolen_tasks)
  in
  let fiber = Abp.Trace_counters.(count suspensions, count resumes, count suspended_peak) in
  (* Backend lateness is the timer's share of an await (fulfil time
     minus due time), apart from the scheduler's resume lag. *)
  let late =
    Option.bind backend (fun b ->
        let h = Abp.Backend.lateness b in
        if Abp.Log_histogram.count h = 0 then None
        else
          let us q = float_of_int (Abp.Log_histogram.quantile h q) /. 1e3 in
          Some (us 0.5, us 0.99))
  in
  (let susp, res, peak = fiber in
   if susp > 0 then
     Format.printf "fiber: %d suspensions, %d resumes, suspended peak %d%s@." susp res peak
       (match late with
       | Some (p50, p99) -> Printf.sprintf "; backend lateness p50 %.1fus p99 %.1fus" p50 p99
       | None -> ""));
  let deadline_misses =
    (Abp.Shard.lane_stats s Abp.Serve.Bulk).Abp.Serve.lane_misses
    + (Abp.Shard.lane_stats s Abp.Serve.Deadline).Abp.Serve.lane_misses
  in
  let routes = Abp.Shard.route_counts s in
  let depths = Abp.Shard.inbox_depths s in
  let lane_json =
    let block lane =
      json_lane ~ls:(Abp.Shard.lane_stats s lane) ~latency:(Abp.Shard.lane_sojourn_latency s lane)
    in
    Printf.sprintf {|{"bulk":%s,"deadline":%s}|} (block Abp.Serve.Bulk)
      (block Abp.Serve.Deadline)
  in
  Abp.Shard.shutdown s;
  Option.iter
    (fun file ->
      write_json file ~p ~shards ~affinity ~clients ~requests ~fib ~await_depth ~backend_ms
        ~use_lanes ~lane_share ~open_loop ~arrival ~rate ~shed:(Atomic.get shed) ~elapsed
        ~throughput ~cpu_s ~st ~conserved ~cross ~fiber ~late ~routes ~depths ~lane_json
        ~deadline_misses;
      Format.printf "json written to %s@." file)
    json_file;
  (match (sinks, trace_file) with
  | Some sinks, Some file ->
      Array.iteri
        (fun i sink ->
          Format.printf "shard %d:@.%a" i Abp.Trace.Report.pp sink;
          let out =
            if shards = 1 then file
            else
              let base = Filename.remove_extension file in
              let ext = Filename.extension file in
              Printf.sprintf "%s.shard%d%s" base i ext
          in
          Abp.Trace.Chrome.write_file out sink;
          Format.printf "chrome trace written to %s (load in chrome://tracing)@." out)
        sinks
  | _ -> ());
  if not conserved then begin
    Printf.eprintf "hoodserve: fatal: conservation invariant violated\n%!";
    exit 1
  end;
  if Atomic.get completed = 0 then exit 2

let cmd =
  let p = Arg.(value & opt int 4 & info [ "p"; "processes" ] ~doc:"worker processes per shard") in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"K"
          ~doc:"number of micropool shards, each with its own injector inbox and $(b,-p) workers")
  in
  let affinity =
    Arg.(
      value
      & opt (enum [ ("hash", Hash); ("key", Key) ]) Hash
      & info [ "affinity" ] ~docv:"POLICY"
          ~doc:"request routing: $(b,hash) spreads requests across shards; $(b,key) pins each \
                client's stream to the shard of its client id")
  in
  let clients = Arg.(value & opt int 4 & info [ "clients" ] ~doc:"load-generating client domains") in
  let requests = Arg.(value & opt int 1000 & info [ "requests" ] ~doc:"requests per client") in
  let fib = Arg.(value & opt int 16 & info [ "fib" ] ~doc:"per-request work: sequential fib N") in
  let await_depth =
    Arg.(
      value & opt int 0
      & info [ "await-depth" ] ~docv:"D"
          ~doc:"suspensions per request: the body awaits a simulated backend $(docv) times \
                between compute slices (0 = plain blocking requests; max 64)")
  in
  let backend_ms =
    Arg.(
      value & opt float 0.2
      & info [ "backend-ms" ] ~docv:"MS"
          ~doc:"simulated backend latency per await, in milliseconds (max 1000)")
  in
  let inbox =
    Arg.(value & opt int 256 & info [ "inbox" ] ~doc:"injector inbox capacity (per shard, per lane)")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"per-request relative deadline; still-queued requests past it are dropped")
  in
  let use_lanes =
    Arg.(
      value & flag
      & info [ "lanes" ]
          ~doc:"route a $(b,--lane-share) fraction of requests through the high-priority \
                deadline lane (polled first by workers, FIFO within the lane)")
  in
  let lane_share =
    Arg.(
      value & opt float 0.25
      & info [ "lane-share" ] ~docv:"F"
          ~doc:"fraction of requests sent to the deadline lane under $(b,--lanes) (in [0,1])")
  in
  let open_loop =
    Arg.(
      value & flag
      & info [ "open-loop" ]
          ~doc:"open-loop load generation: arrivals follow $(b,--arrival) at $(b,--rate) req/s \
                independent of completions; a full inbox sheds the arrival instead of blocking")
  in
  let arrival =
    Arg.(
      value
      & opt (enum [ ("poisson", Poisson); ("burst", Burst) ]) Poisson
      & info [ "arrival" ] ~docv:"PROC"
          ~doc:"open-loop arrival process: $(b,poisson) (memoryless) or $(b,burst) (two-state \
                MMPP: ~10ms ON at 3x rate, ~20ms OFF)")
  in
  let rate =
    Arg.(
      value & opt float 2000.0
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"total open-loop offered load, requests per second (in (0,1e7])")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"collect scheduler telemetry (including injector and cross-shard polls); print \
                the aggregate report and write a Chrome trace-event JSON to $(docv) (per-shard \
                suffixed files when --shards > 1)")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"write a machine-readable run summary (schema hoodserve/6) to $(docv)")
  in
  Cmd.v
    (Cmd.info "hoodserve" ~doc:"Serve external requests on the Hood work-stealing runtime")
    Term.(
      const run $ p $ shards $ affinity $ clients $ requests $ fib $ await_depth $ backend_ms
      $ inbox $ deadline $ use_lanes $ lane_share $ open_loop $ arrival $ rate
      $ trace_file $ json_file)

let () = exit (Cmd.eval cmd)
