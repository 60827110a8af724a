(* hoodrun: run workloads on the real Hood runtime and report timing and
   steal counters.

   Examples:
     hoodrun fib -n 30 -p 4
     hoodrun nqueens -n 11 -p 4
     hoodrun reduce -n 5000000 -p 2
     hoodrun nqueens -n 10 -p 4 --trace out.json   # chrome://tracing
     hoodrun fib -n 28 -p 4 --adversary duty:on=2,off=2 --yield all
     hoodrun fib -n 28 -p 4 --adversary starve-workers:width=2 --yield none *)

open Cmdliner

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Multiprogramming summary of a gated run, for the report and the JSON
   record ([None] when no --adversary was given). *)
type mp_summary = {
  mp_adversary : string;
  mp_quantum : float;
  mp_quanta : int;
  mp_pbar : float;
  mp_pbar_procs : float;
  mp_suspended_s : float;
  mp_antagonist : int;
}

(* JSON string escaping for the interpolated fields below.  Today every
   value reaching write_json has already passed workload/spec
   validation, but that invariant is implicit — escape here so a future
   grammar or workload addition (say, a spec value containing a quote)
   cannot silently emit invalid JSON. *)
let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b {|\"|}
      | '\\' -> Buffer.add_string b {|\\|}
      | '\n' -> Buffer.add_string b {|\n|}
      | '\r' -> Buffer.add_string b {|\r|}
      | '\t' -> Buffer.add_string b {|\t|}
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf {|\u%04x|} (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Machine-readable result record, one JSON object per run. *)
let write_json file ~workload ~n ~p ~deque ~yield ~mp ~elapsed ~result ~attempts
    ~successes ~stolen =
  let oc = open_out file in
  Printf.fprintf oc
    {|{"schema":"hoodrun/5","workload":"%s","n":%d,"p":%d,"deque":"%s","yield":"%s","seconds":%.6f,"result":%d,"steal_attempts":%d,"successful_steals":%d,"stolen_tasks":%d|}
    (json_escape workload) n p (json_escape deque) (json_escape yield) elapsed result
    attempts successes stolen;
  (match mp with
  | None -> ()
  | Some m ->
      Printf.fprintf oc
        {|,"adversary":"%s","quantum_ms":%.3f,"quanta":%d,"pbar":%.4f,"pbar_procs":%.4f,"suspended_seconds":%.6f,"antagonist":%d|}
        (json_escape m.mp_adversary) (m.mp_quantum *. 1e3) m.mp_quanta m.mp_pbar
        m.mp_pbar_procs m.mp_suspended_s m.mp_antagonist);
  output_string oc "}\n";
  close_out oc

(* A task exception (or a bad flag) must exit nonzero with the error on
   stderr, not surface as an uncaught backtrace (exit 125) from the
   cmdliner evaluator. *)
let fatal_guard name f =
  try f ()
  with e ->
    Printf.eprintf "%s: fatal: %s\n%!" name (Printexc.to_string e);
    exit 1

let make_yield = function
  | "none" -> Abp.Pool.No_yield
  | "local" -> Abp.Pool.Yield_local
  | "random" -> Abp.Pool.Yield_to_random
  | "all" -> Abp.Pool.Yield_to_all
  | other -> raise (Invalid_argument ("unknown yield kind: " ^ other))

(* Pool stage-1 yield kind -> kernel obligation semantics for the
   controller.  Yield_local is plain backoff: no directed yields. *)
let kernel_yield = function
  | Abp.Pool.No_yield | Abp.Pool.Yield_local -> Abp.Yield.No_yield
  | Abp.Pool.Yield_to_random -> Abp.Yield.Yield_to_random
  | Abp.Pool.Yield_to_all -> Abp.Yield.Yield_to_all

let run workload n p grain deque yield adversary quantum_ms antagonist seed trace_file
    json_file =
 fatal_guard "hoodrun" @@ fun () ->
  let deque_impl =
    match deque with
    | "abp" -> Abp.Pool.Abp
    | "circular" -> Abp.Pool.Circular
    | "locked" -> Abp.Pool.Locked
    | other ->
        (* A clean one-liner, not an Invalid_argument rendering through
           fatal_guard: name the offender and the valid choices. *)
        Printf.eprintf "hoodrun: unknown deque %S (valid: abp, circular, locked)\n%!" other;
        exit 1
  in
  let yield_kind = make_yield yield in
  (* --grain 0 selects lazy binary splitting (the library default when
     [?grain] is omitted). *)
  let grain_opt = if grain = 0 then None else Some grain in
  let sink =
    Option.map (fun _ -> Abp.Trace.Sink.create ~ring_capacity:(1 lsl 16) ~workers:p ()) trace_file
  in
  let gate = Option.map (fun _ -> Abp.Gate.create ~num_workers:p) adversary in
  let pool =
    Abp.Pool.create ~processes:p ~deque_impl ~yield_kind
      ?gate:(Option.map Abp.Gate.hook gate)
      ?trace:sink ()
  in
  let controller =
    match (adversary, gate) with
    | Some spec, Some gate ->
        let rng = Abp.Rng.create ~seed:(Int64.of_int seed) () in
        let adv = Abp.Adversary_spec.parse ~num_processes:p ~rng spec in
        let c =
          Abp.Controller.create ~quantum:(quantum_ms /. 1e3) ~yield:(kernel_yield yield_kind)
            ~gate ~pool adv
        in
        Abp.Controller.start c;
        Some c
    | _ -> None
  in
  let antag = if antagonist > 0 then Some (Abp.Antagonist.start ~spinners:antagonist) else None in
  let finally () =
    (* Order matters: reopen gates (Controller.stop) before the pool
       shutdown, or a worker blocked at a closed gate never observes
       the shutdown flag. *)
    Option.iter Abp.Controller.stop controller;
    Option.iter Abp.Antagonist.stop antag
  in
  let result, elapsed =
    match
      Abp.Pool.run pool (fun () ->
          time (fun () ->
              match workload with
              | "fib" -> Abp.Par.fib n
              | "nqueens" -> Abp.Par.nqueens n
              | "reduce" ->
                  Abp.Par.parallel_reduce ?grain:grain_opt ~lo:0 ~hi:n ~init:0 ~combine:( + )
                    (fun i -> (i * i) mod 97)
              | "crash" ->
                  (* Test workload: a task deep in the parallel subtree
                     raises, exercising the exit-nonzero error path. *)
                  Abp.Par.parallel_for ~grain:4 ~lo:0 ~hi:(max 1 n) (fun i ->
                      if i = n / 2 then failwith "crash workload task failure");
                  0
              | other -> raise (Invalid_argument ("unknown workload: " ^ other))))
    with
    | r -> finally (); r
    | exception e -> finally (); raise e
  in
  let mp =
    Option.map
      (fun c ->
        {
          (* The spec string as given, not the adversary's internal
             name: the JSON should paste back into --adversary. *)
          mp_adversary = Option.value adversary ~default:"";
          mp_quantum = quantum_ms /. 1e3;
          mp_quanta = Abp.Controller.quanta c;
          mp_pbar = Abp.Controller.pbar c;
          mp_pbar_procs = Abp.Controller.pbar_procs c;
          mp_suspended_s = Abp.Controller.suspended_seconds c;
          mp_antagonist = antagonist;
        })
      controller
  in
  Abp.Pool.shutdown pool;
  let totals = Abp.Trace.Counters.sum (Abp.Pool.counters pool) in
  Format.printf "%s(%d) = %d  on P=%d in %.3fs  steals %d/%d  yield=%s@." workload n result p
    elapsed
    (Abp.Pool.successful_steals pool)
    (Abp.Pool.steal_attempts pool)
    (Abp.Pool.yield_kind_name (Abp.Pool.yield_kind pool));
  Option.iter
    (fun m ->
      Format.printf
        "adversary %s: %d quanta of %.1fms  Pbar=%.2f (granted-workers %.2f of %d)  suspended \
         %.3fs over %d gate stops%s@."
        m.mp_adversary m.mp_quanta (m.mp_quantum *. 1e3) m.mp_pbar m.mp_pbar_procs p
        m.mp_suspended_s Abp.Trace.Counters.(get totals gate_suspends)
        (if m.mp_antagonist > 0 then Printf.sprintf "  antagonist=%d spinners" m.mp_antagonist
         else ""))
    mp;
  Option.iter
    (fun file ->
      write_json file ~workload ~n ~p ~deque ~yield ~mp ~elapsed ~result
        ~attempts:(Abp.Pool.steal_attempts pool)
        ~successes:(Abp.Pool.successful_steals pool)
        ~stolen:Abp.Trace.Counters.(get totals stolen_tasks);
      Format.printf "json result written to %s@." file)
    json_file;
  match (sink, trace_file) with
  | Some sink, Some file ->
      Format.printf "%a" Abp.Trace.Report.pp sink;
      Abp.Trace.Chrome.write_file file sink;
      Format.printf "chrome trace written to %s (load in chrome://tracing)@." file
  | _ -> ()

let cmd =
  let workload =
    Arg.(
      value & pos 0 string "fib"
      & info [] ~docv:"WORKLOAD" ~doc:"fib|nqueens|reduce|crash (crash raises, for testing)")
  in
  let n = Arg.(value & opt int 25 & info [ "n" ] ~doc:"problem size") in
  let p = Arg.(value & opt int 4 & info [ "p"; "processes" ] ~doc:"worker processes") in
  let grain =
    Arg.(
      value & opt int 0
      & info [ "grain" ] ~doc:"sequential grain for reduce; 0 = lazy binary splitting (default)")
  in
  let deque =
    Arg.(value & opt string "abp" & info [ "deque" ] ~doc:"abp|circular|locked")
  in
  let yield =
    Arg.(
      value & opt string "local"
      & info [ "yield" ]
          ~doc:"thief idle policy between failed steals: none (hot spin) | local \
                (Domain.cpu_relax + backoff, the default) | random | all (directed yields, \
                reported to the --adversary controller as yieldToRandom/yieldToAll)")
  in
  let adversary =
    Arg.(
      value
      & opt (some string) None
      & info [ "adversary" ] ~docv:"SPEC"
          ~doc:
            "run under a kernel adversary (cooperative preemption gates): \
             dedicated|benign:avail=N|rotor:run=N|half:run=N|duty:on=N,off=N|markov:up=F,down=F|starve-workers:width=N|starve-thieves:width=N|preempt-locks:width=N \
             — the same grammar simrun accepts")
  in
  let quantum_ms =
    Arg.(
      value & opt float 1.0
      & info [ "quantum" ] ~docv:"MS" ~doc:"adversary quantum (kernel round) in milliseconds")
  in
  let antagonist =
    Arg.(
      value & opt int 0
      & info [ "antagonist" ] ~docv:"K"
          ~doc:"spawn $(docv) background spinner domains competing for cores")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"adversary random seed") in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"collect scheduler telemetry; print the aggregate report and write a Chrome \
                trace-event JSON to $(docv)")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"write the run's timing and steal counters as a JSON object to $(docv)")
  in
  Cmd.v
    (Cmd.info "hoodrun" ~doc:"Run workloads on the Hood work-stealing runtime")
    Term.(
      const run $ workload $ n $ p $ grain $ deque $ yield $ adversary $ quantum_ms
      $ antagonist $ seed $ trace_file $ json_file)

let () = exit (Cmd.eval cmd)
