(* E31: suspendable-request benchmark — what awaiting buys a server.

   Every request talks to a simulated downstream backend (Abp.Backend:
   dedicated domains fulfil each call's promise ~backend_ms after it is
   made).  Two request styles run against the SAME worker budget P:

     blocking   the body busy-polls Promise.try_await until the backend
                answers — the worker is pinned for the whole backend
                latency, so at most P requests make progress at once
                (the classic thread-per-request ceiling P/latency)
     async      the body suspends via Fiber.await — the continuation
                parks on the promise, the worker returns to the Figure 3
                loop and serves other requests, and the backend's
                fulfil re-injects the continuation through the resume
                inbox.  In-flight requests are bounded by the clients,
                not the workers.

   With C = 4P closed-loop clients the async ceiling is ~4x the
   blocking one; the harness asserts a conservative >= 1.5x in full
   mode (smoke sizes are too small and noisy to gate on).

   Also measured:

   - a volume cell: >= 1e5 suspend/resume cycles (full mode) through
     one service, then drain — counters must balance exactly
     (resumes = suspensions), nothing may remain suspended, and the
     await-aware conservation identity must collapse to the classic
     one at drain;
   - a duty-cycle adversary cell: the async service under a kernel
     adversary (Abp_mp gates, duty:on=2,off=1) — suspensions and
     resumes must stay balanced and conservation must hold even when
     workers are preempted between park and resume.

     dune exec bench/exp_fiber.exe                    # full run
     dune exec bench/exp_fiber.exe -- --smoke         # CI schema check
     dune exec bench/exp_fiber.exe -- --json out.json

   The binary re-reads and schema-checks the JSON it wrote (schema
   abp-fiber/1), exiting nonzero on failure — CI relies on this. *)

let json_file = ref "BENCH_fiber.json"
let smoke = ref false

let spec =
  [
    ("--json", Arg.Set_string json_file, "FILE  output file (default BENCH_fiber.json)");
    ("--smoke", Arg.Set smoke, "  tiny sizes for CI schema checks");
  ]

let now = Unix.gettimeofday
let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

(* Worker budget and offered load.  fib is tiny on purpose: the cell
   under test is what a worker does DURING the backend latency, not
   the compute. *)
let p = 4
let clients () = if !smoke then 8 else 4 * p
let requests_per_client () = if !smoke then 50 else 500
let backend_ms () = if !smoke then 0.2 else 1.0
let volume_clients () = if !smoke then 8 else 64
let volume_requests () = if !smoke then 2_000 else 60_000
let volume_depth = 2

type cell = {
  style : string;
  c_p : int;
  c_clients : int;
  c_requests : int;
  c_seconds : float;
  c_rps : float;
  c_suspensions : int;
  c_resumes : int;
  c_suspended_peak : int;
  c_conserved : bool;
}

let fiber_counters s =
  let t = Abp.Trace_counters.sum (Abp.Pool.counters (Abp.Serve.pool (Abp.Shard.serve s 0))) in
  Abp.Trace_counters.(get t suspensions, get t resumes, get t suspended_peak)

let drain_checked ~label s =
  let st = Abp.Shard.drain s in
  let susp, res, _peak = fiber_counters s in
  if st.Abp.Serve.suspended <> 0 then begin
    Printf.eprintf "%s: %d requests still suspended after drain\n" label st.Abp.Serve.suspended;
    exit 1
  end;
  if susp <> res then begin
    Printf.eprintf "%s: fiber counters unbalanced after drain: %d suspensions, %d resumes\n"
      label susp res;
    exit 1
  end;
  if
    st.Abp.Serve.accepted
    <> st.Abp.Serve.completed + st.Abp.Serve.cancelled + st.Abp.Serve.exceptions
  then begin
    Printf.eprintf "%s: drain conservation violated\n" label;
    exit 1
  end;
  st

(* Closed-loop clients against one service; [body] is the request. *)
let run_closed_loop ~label ~clients ~per_client ~mk_serve body =
  let s, finish = mk_serve () in
  let delay = backend_ms () /. 1000.0 in
  let backend = Abp.Backend.create ~workers:2 () in
  let completed = Atomic.make 0 in
  let t0 = now () in
  let ds =
    Array.init clients (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_client do
              let t = Abp.Shard.submit s (fun () -> body backend delay) in
              match Abp.Serve.await t with
              | Abp.Serve.Returned _ -> Atomic.incr completed
              | Abp.Serve.Raised e -> raise e
              | Abp.Serve.Cancelled _ -> failwith (label ^ ": request cancelled")
            done))
  in
  Array.iter Domain.join ds;
  let seconds = now () -. t0 in
  let st = drain_checked ~label s in
  let susp, res, peak = fiber_counters s in
  Abp.Backend.stop backend;
  finish ();
  Abp.Shard.shutdown s;
  let requests = Atomic.get completed in
  if requests <> clients * per_client then begin
    Printf.eprintf "%s: completed %d of %d requests\n" label requests (clients * per_client);
    exit 1
  end;
  ( {
      style = label;
      c_p = p;
      c_clients = clients;
      c_requests = requests;
      c_seconds = seconds;
      c_rps = float_of_int requests /. seconds;
      c_suspensions = susp;
      c_resumes = res;
      c_suspended_peak = peak;
      c_conserved =
        st.Abp.Serve.accepted
        = st.Abp.Serve.completed + st.Abp.Serve.cancelled + st.Abp.Serve.exceptions;
    },
    st )

let plain_serve () = (Abp.Shard.create ~processes:p ~inbox_capacity:1024 ~shards:1 (), fun () -> ())

(* The async body: one compute slice, one suspension on the backend. *)
let async_body backend delay =
  let v = fib_seq 10 in
  Abp.Fiber.await (Abp.Backend.call backend ~delay v)

(* The blocking baseline: identical work and backend call, but the
   worker busy-polls instead of parking — thread-per-request economics
   on the same pool. *)
let blocking_body backend delay =
  let v = fib_seq 10 in
  let pr = Abp.Backend.call backend ~delay v in
  let rec wait () =
    match Abp.Fiber.Promise.try_await pr with
    | Some r -> r
    | None ->
        Domain.cpu_relax ();
        wait ()
  in
  wait ()

(* Volume cell: depth-[volume_depth] awaits per request, enough total
   cycles to make a counting bug visible (>= 1e5 in full mode). *)
let volume_body backend delay =
  let v = ref (fib_seq 8) in
  for _ = 1 to volume_depth do
    v := Abp.Fiber.await (Abp.Backend.call backend ~delay !v)
  done;
  !v

(* Duty-cycle adversary cell: the async service under Abp_mp gates. *)
let gated_serve () =
  let gate = Abp.Gate.create ~num_workers:p in
  let s =
    Abp.Shard.create ~processes:p ~inbox_capacity:1024 ~yield_kind:Abp.Pool.Yield_to_all
      ~gates:[| Abp.Gate.hook gate |] ~shards:1 ()
  in
  let rng = Abp.Rng.create ~seed:31L () in
  let adv = Abp.Adversary_spec.parse ~num_processes:p ~rng "duty:on=2,off=1" in
  let c =
    Abp.Controller.create ~quantum:2e-3 ~yield:Abp.Yield.Yield_to_all ~gate
      ~pool:(Abp.Serve.pool (Abp.Shard.serve s 0)) adv
  in
  Abp.Controller.start c;
  (* Gates must reopen before drain/shutdown joins the workers. *)
  (s, fun () -> Abp.Controller.stop c)

(* ------------------------------------------------------------------ *)
(* JSON out (hand-rolled: fixed ASCII keys, numbers only).            *)

let f6 x = Printf.sprintf "%.6f" x

let cell_json r =
  Printf.sprintf
    {|    {"style":"%s","p":%d,"clients":%d,"requests":%d,"seconds":%s,"throughput_rps":%s,"suspensions":%d,"resumes":%d,"suspended_peak":%d,"conserved":%b}|}
    r.style r.c_p r.c_clients r.c_requests (f6 r.c_seconds) (f6 r.c_rps) r.c_suspensions
    r.c_resumes r.c_suspended_peak r.c_conserved

let to_json cells ~headline =
  let async_rps, blocking_rps = headline in
  String.concat "\n"
    ([
       "{";
       {|  "schema": "abp-fiber/1",|};
       Printf.sprintf {|  "mode": "%s",|} (if !smoke then "smoke" else "full");
       Printf.sprintf {|  "backend_ms": %s,|} (f6 (backend_ms ()));
       Printf.sprintf {|  "volume_depth": %d,|} volume_depth;
       {|  "cells": [|};
     ]
    @ [ String.concat ",\n" (List.map cell_json cells) ]
    @ [
        "  ],";
        Printf.sprintf
          {|  "headline": {"async_rps":%s,"blocking_rps":%s,"speedup":%s}|}
          (f6 async_rps) (f6 blocking_rps)
          (f6 (async_rps /. blocking_rps));
        "}";
        "";
      ])

let validate =
  Schema.check ~label:"BENCH_fiber.json"
    ~required:
      [
        {|"schema": "abp-fiber/1"|};
        {|"mode"|};
        {|"backend_ms"|};
        {|"cells"|};
        {|"style":"async"|};
        {|"style":"blocking"|};
        {|"style":"volume"|};
        {|"style":"duty"|};
        {|"suspensions"|};
        {|"resumes"|};
        {|"suspended_peak"|};
        {|"conserved":true|};
        {|"headline"|};
        {|"speedup"|};
      ]

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "exp_fiber [--smoke] [--json FILE]";
  Printf.printf "== E31 suspendable requests (%s mode, backend %.1fms, P=%d) ==\n%!"
    (if !smoke then "smoke" else "full")
    (backend_ms ()) p;
  let c = clients () and per = requests_per_client () in
  let async_cell, _ =
    run_closed_loop ~label:"async" ~clients:c ~per_client:per ~mk_serve:plain_serve async_body
  in
  Printf.printf "  async     %8.0f req/s  (%d suspensions, peak %d)\n%!" async_cell.c_rps
    async_cell.c_suspensions async_cell.c_suspended_peak;
  let blocking_cell, _ =
    run_closed_loop ~label:"blocking" ~clients:c ~per_client:per ~mk_serve:plain_serve
      blocking_body
  in
  Printf.printf "  blocking  %8.0f req/s  (workers pinned through the backend latency)\n%!"
    blocking_cell.c_rps;
  let speedup = async_cell.c_rps /. blocking_cell.c_rps in
  Printf.printf "  headline: async/blocking = %.2fx at C=%d clients over P=%d workers\n%!"
    speedup c p;
  let volume_cell, _ =
    run_closed_loop ~label:"volume" ~clients:(volume_clients ())
      ~per_client:(volume_requests () / volume_clients ())
      ~mk_serve:plain_serve volume_body
  in
  Printf.printf "  volume    %d requests, %d suspend/resume cycles, balanced and conserved\n%!"
    volume_cell.c_requests volume_cell.c_suspensions;
  let duty_cell, _ =
    run_closed_loop ~label:"duty"
      ~clients:(if !smoke then 4 else 8)
      ~per_client:(if !smoke then 25 else 200)
      ~mk_serve:gated_serve async_body
  in
  Printf.printf "  duty      %8.0f req/s under duty:on=2,off=1 (conserved %b)\n%!" duty_cell.c_rps
    duty_cell.c_conserved;
  if (not !smoke) && speedup < 1.5 then begin
    Printf.eprintf "E31 FAILED: async %.0f req/s < 1.5x blocking %.0f req/s (%.2fx)\n"
      async_cell.c_rps blocking_cell.c_rps speedup;
    exit 1
  end;
  if (not !smoke) && volume_cell.c_suspensions < 100_000 then begin
    (* depth 2 x ~60k requests = ~120k awaits; the backend latency
       dwarfs the call->await window, so the fast path (an already
       resolved promise, no suspension) should be rare.  A large
       shortfall means awaits are not actually suspending. *)
    Printf.eprintf "E31 FAILED: only %d suspensions in the volume cell (wanted >= 100000)\n"
      volume_cell.c_suspensions;
    exit 1
  end;
  let oc = open_out !json_file in
  output_string oc (to_json [ async_cell; blocking_cell; volume_cell; duty_cell ]
                      ~headline:(async_cell.c_rps, blocking_cell.c_rps));
  close_out oc;
  validate !json_file;
  Printf.printf "wrote %s (schema ok)\n" !json_file
