(* E29: the multiprogramming harness — the kernel adversary replayed
   against the real pool, validating T = O(T1/Pbar + Tinf*P/Pbar)
   (Theorems 10-12) on hardware.

   Five sections:

   - fit: spin-trees of several depths (exact T1/Tinf by construction)
     plus fib, swept over duty-cycle grant levels.  Each run measures T
     and the controller's hardware processor average Pbar; the points
     are fitted to T = c1*(T1/Pbar) + c2*(Tinf*P/Pbar)
     (Abp.Regression.fit_two_term), and the largest T/bound ratio is
     the empirical constant factor.
   - adversaries: one workload under dedicated, markov, rotor, duty and
     starve-workers kernels; the granted-worker average pbar_procs must
     drop below the dedicated baseline under markov/starve/duty.
   - yield: starve-workers with Yield_to_all vs No_yield.  Both finish
     on hardware (a suspended worker's deque stays stealable — unlike
     the paper's model, documented in Abp_mp.Controller), but the
     yield-less pool must burn strictly more failed steal attempts per
     completed task.
   - antagonist: the paper's hardware matrix, {Abp, Locked} x
     {No_yield, Yield_local}, each run beside 0 and 4 background
     spinner domains instead of gates; full mode prints each cell's
     slowdown under load.  The spinners' processor share is invisible
     to the controller, so these runs are reported but excluded from
     the fit.
   - steal_volume: measured stolen_tasks on ungated tree/chain runs,
     normalized by the P*Tinf steal-count bound (the
     work-stealing steal volume is O(P*Tinf) in expectation — the bound
     localized stealing preserves, Suksompong–Leiserson–Schardl).  The
     ratio is the empirical constant; full mode asserts it stays under
     a generous cap.

   Emits machine-readable JSON (default BENCH_mp.json, schema abp-mp/5),
   then re-reads and schema-checks it, exiting nonzero on a malformed
   document or a failed acceptance check — CI relies on this:

     dune exec bench/exp_mp.exe                     # full run
     dune exec bench/exp_mp.exe -- --smoke          # CI smoke
     dune exec bench/exp_mp.exe -- --json out.json *)

let json_file = ref "BENCH_mp.json"
let smoke = ref false
let repeats = ref 2

let spec =
  [
    ("--json", Arg.Set_string json_file, "FILE  output file (default BENCH_mp.json)");
    ("--smoke", Arg.Set smoke, "  tiny sizes for CI schema checks");
    ("--repeats", Arg.Set_int repeats, "N  timed repetitions per measurement (default 2)");
  ]

let now = Unix.gettimeofday

let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "E29 check FAILED: %s\n" m; exit 1) fmt

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* ------------------------------------------------------------------ *)
(* Workloads with known work/span structure.                          *)

(* One unit of leaf work: a register-only multiplicative-congruential
   loop, calibrated below so trees can be sized in seconds. *)
let spin_work iters =
  let x = ref 1 in
  for _ = 1 to iters do
    x := !x * 48271 land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x)

let calibrate () =
  let probe = 5_000_000 in
  spin_work probe;
  (* warm *)
  let t0 = now () in
  spin_work probe;
  let dt = now () -. t0 in
  float_of_int probe /. dt

(* Balanced binary spawn tree: 2^(d+1)-1 nodes each spinning [iters],
   so in node-time units T1 = 2^(d+1)-1 and Tinf = d+1 exactly.  Node
   work must stay well under the controller quantum: the gate is
   cooperative, so a worker only suspends at spawn/join safe points —
   a node longer than a quantum would ride straight through closed
   gates (see the granularity note in Abp_mp.Controller). *)
let rec spin_tree d iters =
  spin_work iters;
  if d = 0 then 1
  else
    let a, b =
      Abp.Future.both (fun () -> spin_tree (d - 1) iters) (fun () -> spin_tree (d - 1) iters)
    in
    a + b + 1

(* Serial spawn chain: n+1 nodes in strict sequence, T1 = Tinf = n+1
   node-times — the maximal-span counterpart to the tree, pinning the
   Tinf*P/Pbar coefficient in the fit.  Each link is a real spawn that
   is forced at once, so the work-first join runs it inline: the chain
   stays on one worker (a thief only takes a link in the moment between
   its spawn and its force) and crosses a gate safe point
   ([Future.force]'s checkpoint) at every node. *)
let rec spin_chain n iters =
  spin_work iters;
  if n = 0 then 1
  else 1 + Abp.Future.force (Abp.Future.spawn (fun () -> spin_chain (n - 1) iters))

(* fib's work/span in leaf-equivalent units, for Tinf estimation: below
   the runtime's sequential cutoff a call is one leaf of weight fib(n);
   above it, work adds and span maxes (join overhead ~ 0). *)
let fib_cutoff = 12

let rec fib_float n = if n < 2 then float_of_int n else fib_float (n - 1) +. fib_float (n - 2)

let rec fib_units n =
  if n <= fib_cutoff then
    let w = fib_float n in
    (w, w)
  else
    let w1, s1 = fib_units (n - 1) and w2, s2 = fib_units (n - 2) in
    (w1 +. w2, Float.max s1 s2)

(* ------------------------------------------------------------------ *)
(* One gated measurement.                                             *)

type gated = {
  g_label : string;
  g_adversary : string;
  g_yield : string;
  g_p : int;
  g_median : float;
  g_pbar : float;
  g_pbar_procs : float;
  g_quanta : int;
  g_suspends : int;
  g_suspended_s : float;
  g_attempts : int;
  g_successes : int;
  g_tasks : int;
  g_result : int;
}

let kernel_yield = function
  | Abp.Pool.No_yield | Abp.Pool.Yield_local -> Abp.Yield.No_yield
  | Abp.Pool.Yield_to_random -> Abp.Yield.Yield_to_random
  | Abp.Pool.Yield_to_all -> Abp.Yield.Yield_to_all

(* Quanta well above the controller's worst-case wakeup delay (~1-2ms
   when spinning workers hold every core), so the grant schedule's
   wall-clock shape stays close to the adversary's nominal pattern. *)
let quantum () = if !smoke then 2e-3 else 4e-3

let measure_gated ~label ~spec ~p ~yield ~seed f =
  let gate = Abp.Gate.create ~num_workers:p in
  let pool = Abp.Pool.create ~processes:p ~yield_kind:yield ~gate:(Abp.Gate.hook gate) () in
  let rng = Abp.Rng.create ~seed:(Int64.of_int seed) () in
  let adv = Abp.Adversary_spec.parse ~num_processes:p ~rng spec in
  let c =
    Abp.Controller.create ~quantum:(quantum ()) ~yield:(kernel_yield yield) ~gate ~pool adv
  in
  Abp.Controller.start c;
  let timings = ref [] and value = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      (* Gates must reopen before the pool joins its workers. *)
      Abp.Controller.stop c;
      Abp.Pool.shutdown pool)
    (fun () ->
      for _ = 1 to !repeats do
        let t0 = now () in
        value := Abp.Pool.run pool f;
        timings := (now () -. t0) :: !timings
      done);
  let t = Abp.Trace.Counters.sum (Abp.Pool.counters pool) in
  {
    g_label = label;
    g_adversary = spec;
    g_yield = Abp.Pool.yield_kind_name yield;
    g_p = p;
    g_median = median !timings;
    g_pbar = Abp.Controller.pbar c;
    g_pbar_procs = Abp.Controller.pbar_procs c;
    g_quanta = Abp.Controller.quanta c;
    g_suspends = Abp.Trace.Counters.(get t gate_suspends);
    g_suspended_s = Abp.Controller.suspended_seconds c;
    g_attempts = Abp.Trace.Counters.(get t steal_attempts);
    g_successes = Abp.Trace.Counters.(get t successful_steals);
    g_tasks = Abp.Trace.Counters.(get t pushes);
    g_result = !value;
  }

(* Serial reference: same workload on a 1-worker, ungated pool. *)
let measure_t1 f =
  let pool = Abp.Pool.create ~processes:1 () in
  let timings = ref [] in
  Fun.protect
    ~finally:(fun () -> Abp.Pool.shutdown pool)
    (fun () ->
      for _ = 1 to max 2 !repeats do
        let t0 = now () in
        ignore (Abp.Pool.run pool f);
        timings := (now () -. t0) :: !timings
      done);
  List.fold_left min infinity !timings

(* ------------------------------------------------------------------ *)
(* Section 1: the bound fit.                                          *)

type point = {
  pt_workload : string;
  pt_p : int;
  pt_duty : string;
  pt_t1 : float;
  pt_tinf : float;
  pt_pbar : float;
  pt_seconds : float;
  pt_bound : float;  (* T1/Pbar + Tinf*P/Pbar, unit constants *)
  pt_suspends : int;
}

let duties () =
  if !smoke then [ "duty:on=1,off=0"; "duty:on=1,off=1" ]
  else [ "duty:on=1,off=0"; "duty:on=2,off=1"; "duty:on=1,off=1"; "duty:on=1,off=2" ]

(* One fit workload: a thunk plus its exact (or estimated) work/span in
   seconds, measured serially. *)
let points_for ~p ~seed ~workload ~t1 ~tinf f =
  List.map
    (fun duty ->
      let g = measure_gated ~label:workload ~spec:duty ~p ~yield:Abp.Pool.Yield_local ~seed f in
      let pbar = Float.max g.g_pbar 1e-6 in
      {
        pt_workload = workload;
        pt_p = p;
        pt_duty = duty;
        pt_t1 = t1;
        pt_tinf = tinf;
        pt_pbar = pbar;
        pt_seconds = g.g_median;
        pt_bound = (t1 /. pbar) +. (tinf *. float_of_int p /. pbar);
        pt_suspends = g.g_suspends;
      })
    (duties ())

let fit_points ips =
  let p = 3 in
  let t1_target = if !smoke then 0.04 else 0.12 in
  (* Tree: span ~ 0, identifies c1. *)
  let d = if !smoke then 9 else 11 in
  let nodes = (1 lsl (d + 1)) - 1 in
  let iters = int_of_float (t1_target /. float_of_int nodes *. ips) in
  let tree () = spin_tree d iters in
  let tree_t1 = measure_t1 tree in
  let tree_pts =
    points_for ~p ~seed:7
      ~workload:(Printf.sprintf "tree-d%d" d)
      ~t1:tree_t1
      ~tinf:(tree_t1 *. (float_of_int (d + 1) /. float_of_int nodes))
      tree
  in
  (* Chain: span = work, stresses the Tinf*P/Pbar term. *)
  let links = int_of_float (t1_target /. 2.0 *. ips) / max 1 iters in
  let chain () = spin_chain links iters in
  let chain_t1 = measure_t1 chain in
  let chain_pts =
    points_for ~p ~seed:9 ~workload:(Printf.sprintf "chain-%d" links) ~t1:chain_t1
      ~tinf:chain_t1 chain
  in
  (* fib: irregular tree, span estimated from the cutoff recurrence. *)
  let fib_pts =
    if !smoke then []
    else
      let n = 33 in
      let f () = Abp.Par.fib n in
      let t1 = measure_t1 f in
      let work_u, span_u = fib_units n in
      points_for ~p ~seed:11
        ~workload:(Printf.sprintf "fib-%d" n)
        ~t1 ~tinf:(t1 *. (span_u /. work_u)) f
  in
  tree_pts @ chain_pts @ fib_pts

(* ------------------------------------------------------------------ *)
(* Section 2: Pbar under the adversary zoo.                           *)

let adversary_specs =
  [
    "dedicated";
    "markov:up=0.4,down=0.2";
    "rotor:run=2";
    "duty:on=1,off=1";
    "starve-workers:width=2";
  ]

(* Fine-grained tree sized to [target] serial seconds: node work stays
   ~2 orders of magnitude below the quantum so gates bind promptly. *)
let fine_tree ips target =
  let d = if !smoke then 8 else 10 in
  let nodes = (1 lsl (d + 1)) - 1 in
  let iters = int_of_float (target /. float_of_int nodes *. ips) in
  fun () -> spin_tree d iters

let run_adversaries ips =
  let p = 4 in
  let f = fine_tree ips (if !smoke then 0.03 else 0.1) in
  List.map
    (fun spec ->
      Printf.printf "  zoo: %s...\n%!" spec;
      measure_gated ~label:"zoo" ~spec ~p ~yield:Abp.Pool.Yield_to_random ~seed:3 f)
    adversary_specs

(* ------------------------------------------------------------------ *)
(* Section 3: yieldToAll vs no yield under starve-workers.            *)

let run_yield ips =
  let p = 4 in
  let f = fine_tree ips (if !smoke then 0.03 else 0.1) in
  let spec = "starve-workers:width=2" in
  [
    measure_gated ~label:"starve" ~spec ~p ~yield:Abp.Pool.Yield_to_all ~seed:5 f;
    measure_gated ~label:"starve" ~spec ~p ~yield:Abp.Pool.No_yield ~seed:5 f;
  ]

(* ------------------------------------------------------------------ *)
(* Section 4: the hardware matrix under background load (no gates).   *)

(* {Abp, Locked} x {No_yield, Yield_local}, each run beside 0 and then
   4 spinner domains, which take processor time the pool cannot see:
   with 2 workers on a 2-core host, P̄ < P really holds.  The paper
   (Section 4.4, Theorems 11-12, and the Hood experiments) predicts
   that the slowdown under load grows sharply when the deque is not
   non-blocking (a preempted lock holder stalls every thief) or the
   thief does not yield (it burns the quantum of a preempted peer that
   holds the work). *)
type antag_cell = {
  a_deque : string;
  a_yield : string;
  a_p : int;
  a_alone : float;  (* median T with no spinners *)
  a_loaded : float;  (* median T beside [antag_spinners] spinners *)
  a_result : int;
}

let antag_spinners = 4
let slowdown a = a.a_loaded /. a.a_alone

let run_antagonist ips =
  let p = 2 in
  let f = fine_tree ips (if !smoke then 0.03 else 0.1) in
  let timed deque_impl yield_kind spinners =
    let antag = Abp.Antagonist.start ~spinners in
    let pool = Abp.Pool.create ~processes:p ~deque_impl ~yield_kind () in
    let timings = ref [] and value = ref 0 in
    Fun.protect
      ~finally:(fun () ->
        Abp.Pool.shutdown pool;
        Abp.Antagonist.stop antag)
      (fun () ->
        for _ = 1 to !repeats do
          let t0 = now () in
          value := Abp.Pool.run pool f;
          timings := (now () -. t0) :: !timings
        done);
    (median !timings, !value)
  in
  List.concat_map
    (fun (dname, deque_impl) ->
      List.map
        (fun yield_kind ->
          let alone, r0 = timed deque_impl yield_kind 0 in
          let loaded, r1 = timed deque_impl yield_kind antag_spinners in
          if r0 <> r1 then fail "antagonist %s changed the workload result" dname;
          {
            a_deque = dname;
            a_yield = Abp.Pool.yield_kind_name yield_kind;
            a_p = p;
            a_alone = alone;
            a_loaded = loaded;
            a_result = r0;
          })
        [ Abp.Pool.No_yield; Abp.Pool.Yield_local ])
    [ ("abp", Abp.Pool.Abp); ("locked", Abp.Pool.Locked) ]

(* ------------------------------------------------------------------ *)
(* Section 5: steal-volume validation — measured stolen_tasks against *)
(* the O(P*Tinf) steal-count bound on the tree/chain corpus.          *)

type steal_volume = {
  sv_workload : string;
  sv_p : int;
  sv_tinf_nodes : int;  (* exact span in node units *)
  sv_stolen : int;  (* summed over the repeats *)
  sv_ratio : float;  (* stolen_tasks / (P * Tinf), per run *)
  sv_result : int;
}

(* Generous empirical cap on stolen_tasks / (P * Tinf): the expectation
   bound's constant is small (a handful), and the structural ceiling
   (every task stolen) sits near nodes/(P*Tinf) ~ 110 for the full-mode
   tree — so 64 is far above honest behaviour yet still falsifiable. *)
let steal_ratio_cap = 64.0

let run_steal_volume ips =
  let p = 3 in
  let target = if !smoke then 0.02 else 0.08 in
  (* Deeper than the fit tree so the all-stolen ceiling sits well above
     the cap and the assertion has teeth. *)
  let d = if !smoke then 8 else 11 in
  let nodes = (1 lsl (d + 1)) - 1 in
  let iters = max 1 (int_of_float (target /. float_of_int nodes *. ips)) in
  let links = max 1 (int_of_float (target /. 2.0 *. ips) / max 1 iters) in
  let workloads =
    [
      ("tree", (fun () -> spin_tree d iters), d + 1);
      ("chain", (fun () -> spin_chain links iters), links + 1);
    ]
  in
  List.map
    (fun (wname, f, tinf_nodes) ->
      let pool = Abp.Pool.create ~processes:p () in
      let result =
        Fun.protect
          ~finally:(fun () -> Abp.Pool.shutdown pool)
          (fun () ->
            let r = ref 0 in
            for _ = 1 to !repeats do
              r := Abp.Pool.run pool f
            done;
            !r)
      in
      let t = Abp.Trace.Counters.sum (Abp.Pool.counters pool) in
      let stolen = Abp.Trace.Counters.(get t stolen_tasks) in
      {
        sv_workload = wname;
        sv_p = p;
        sv_tinf_nodes = tinf_nodes;
        sv_stolen = stolen;
        sv_ratio =
          float_of_int stolen
          /. (float_of_int p *. float_of_int tinf_nodes *. float_of_int !repeats);
        sv_result = result;
      })
    workloads

(* ------------------------------------------------------------------ *)
(* Acceptance checks (the ISSUE's E29 criteria).                      *)

let check_fit points fit ratio =
  if List.length points < 4 then fail "too few fit points (%d)" (List.length points);
  List.iter
    (fun pt ->
      if pt.pt_seconds <= 0.0 || pt.pt_bound <= 0.0 then
        fail "degenerate point %s %s" pt.pt_workload pt.pt_duty)
    points;
  (* The gates must actually bind.  Two portable invariants (wall-clock
     duty/dedicated ratios are NOT portable: on an oversubscribed box
     the dedicated baseline is itself inflated by thief contention,
     which the bound's Tinf*P/Pbar term absorbs):
     - work conservation: the granted processor-seconds must cover the
       serial work, T * Pbar >= ~T1.  A harness whose gates are ignored
       reports a low Pbar with an undilated T and fails this.
     - every starved point actually suspended workers at gates. *)
  List.iter
    (fun pt ->
      if pt.pt_seconds *. pt.pt_pbar < 0.5 *. pt.pt_t1 then
        fail "%s %s: T*Pbar = %.3fs under half the serial work %.3fs (gates not binding?)"
          pt.pt_workload pt.pt_duty
          (pt.pt_seconds *. pt.pt_pbar)
          pt.pt_t1;
      if pt.pt_duty <> "duty:on=1,off=0" && pt.pt_suspends = 0 then
        fail "%s %s: adversary revoked workers but nothing suspended" pt.pt_workload pt.pt_duty)
    points;
  if not !smoke then begin
    if fit.Abp.Regression.c1 <= 0.0 then fail "fit c1 = %.3f <= 0" fit.Abp.Regression.c1;
    if ratio > 20.0 then fail "measured T exceeds 20x the unit-constant bound (max ratio %.2f)" ratio;
    if ratio <= 0.0 then fail "degenerate bound ratio"
  end

let find_spec results spec =
  List.find (fun g -> g.g_adversary = spec) results

let check_adversaries results =
  let ded = find_spec results "dedicated" in
  (* Dedicated grants everyone, so its granted-worker average is P. *)
  if ded.g_pbar_procs < float_of_int ded.g_p -. 0.01 then
    fail "dedicated pbar_procs %.2f < P" ded.g_pbar_procs;
  List.iter
    (fun spec ->
      let g = find_spec results spec in
      if g.g_quanta > 0 && not (g.g_pbar_procs < ded.g_pbar_procs -. 0.05) then
        fail "%s pbar_procs %.2f did not drop below dedicated %.2f" spec g.g_pbar_procs
          ded.g_pbar_procs)
    [ "markov:up=0.4,down=0.2"; "duty:on=1,off=1"; "starve-workers:width=2" ];
  List.iter
    (fun g ->
      if g.g_result <> ded.g_result then fail "%s changed the workload result" g.g_adversary)
    results

let failed_per_task g =
  float_of_int (g.g_attempts - g.g_successes) /. float_of_int (max 1 g.g_tasks)

let check_yield = function
  | [ yall; ynone ] ->
      if yall.g_result <> ynone.g_result then fail "yield ablation changed the result";
      let fa = failed_per_task yall and fn = failed_per_task ynone in
      if not (fn > fa) then
        fail "No_yield failed-steals/task %.1f not strictly above Yield_to_all %.1f" fn fa
  | _ -> fail "yield section expects exactly two runs"

(* Every cell computed the same value; full mode also asserts that the
   default configuration (abp/local) really was slowed by the load. *)
let check_antagonist cells =
  if List.length cells <> 4 then fail "antagonist matrix expects 4 cells";
  List.iter
    (fun a ->
      if a.a_result <> (List.hd cells).a_result then
        fail "antagonist %s/%s changed the workload result" a.a_deque a.a_yield)
    cells;
  List.iter
    (fun a ->
      if (not !smoke) && a.a_deque = "abp" && a.a_yield = "local" && slowdown a <= 1.2 then
        fail "%d spinners did not slow the abp/local run (%.3fs vs %.3fs)" antag_spinners
          a.a_loaded a.a_alone)
    cells

let check_steal_volume = function
  | [ tree; chain ] as rows ->
      if tree.sv_workload <> "tree" || chain.sv_workload <> "chain" then
        fail "steal_volume rows out of order";
      List.iter
        (fun sv ->
          if sv.sv_stolen < 0 then fail "steal_volume %s: negative stolen_tasks" sv.sv_workload;
          if sv.sv_tinf_nodes < 1 then fail "steal_volume %s: degenerate Tinf" sv.sv_workload;
          (* The O(P*Tinf) steal-count bound: the measured volume must sit
             under a generous constant times P*Tinf.  Asserted full-mode
             only — smoke trees are tiny and timing-noisy. *)
          if (not !smoke) && sv.sv_ratio > steal_ratio_cap then
            fail "steal_volume %s: stolen/(P*Tinf) = %.2f exceeds the %.0fx cap" sv.sv_workload
              sv.sv_ratio steal_ratio_cap)
        rows
  | _ -> fail "steal_volume section expects two rows (tree, chain)"

(* ------------------------------------------------------------------ *)
(* JSON out (hand-rolled: fixed ASCII keys, numbers only).            *)

let f6 x = Printf.sprintf "%.6f" x

let point_json pt =
  Printf.sprintf
    {|    {"workload":"%s","p":%d,"adversary":"%s","t1":%s,"tinf":%s,"pbar":%.4f,"seconds":%s,"bound":%s,"ratio":%.3f}|}
    pt.pt_workload pt.pt_p pt.pt_duty (f6 pt.pt_t1) (f6 pt.pt_tinf) pt.pt_pbar (f6 pt.pt_seconds)
    (f6 pt.pt_bound)
    (pt.pt_seconds /. pt.pt_bound)

let gated_json g =
  Printf.sprintf
    {|    {"label":"%s","adversary":"%s","yield":"%s","p":%d,"seconds":%s,"pbar":%.4f,"pbar_procs":%.4f,"quanta":%d,"gate_suspends":%d,"suspended_seconds":%s,"steal_attempts":%d,"successful_steals":%d,"tasks":%d,"failed_per_task":%.2f,"result":%d}|}
    g.g_label g.g_adversary g.g_yield g.g_p (f6 g.g_median) g.g_pbar g.g_pbar_procs g.g_quanta
    g.g_suspends (f6 g.g_suspended_s) g.g_attempts g.g_successes g.g_tasks (failed_per_task g)
    g.g_result

let antag_json a =
  Printf.sprintf
    {|    {"deque":"%s","yield":"%s","p":%d,"spinners":%d,"seconds_alone":%s,"seconds_loaded":%s,"slowdown":%.3f,"result":%d}|}
    a.a_deque a.a_yield a.a_p antag_spinners (f6 a.a_alone) (f6 a.a_loaded) (slowdown a)
    a.a_result

let steal_volume_json sv =
  Printf.sprintf
    {|    {"workload":"%s","p":%d,"tinf_nodes":%d,"stolen_tasks":%d,"steal_ratio":%.3f,"result":%d}|}
    sv.sv_workload sv.sv_p sv.sv_tinf_nodes sv.sv_stolen sv.sv_ratio sv.sv_result

let to_json points fit ratio advs yields antags svs =
  String.concat "\n"
    ([
       "{";
       {|  "schema": "abp-mp/5",|};
       Printf.sprintf {|  "mode": "%s",|} (if !smoke then "smoke" else "full");
       Printf.sprintf {|  "repeats": %d,|} !repeats;
       Printf.sprintf {|  "quantum_ms": %.3f,|} (quantum () *. 1e3);
       Printf.sprintf
         {|  "fit": {"c1": %.4f, "cinf": %.4f, "r2": %.4f, "max_ratio": %.3f, "points": [|}
         fit.Abp.Regression.c1 fit.Abp.Regression.c2 fit.Abp.Regression.r2 ratio;
     ]
    @ [ String.concat ",\n" (List.map point_json points) ]
    @ [ "  ]},"; {|  "adversaries": [|} ]
    @ [ String.concat ",\n" (List.map gated_json advs) ]
    @ [ "  ],"; {|  "yield": [|} ]
    @ [ String.concat ",\n" (List.map gated_json yields) ]
    @ [ "  ],"; {|  "antagonist": [|} ]
    @ [ String.concat ",\n" (List.map antag_json antags) ]
    @ [ "  ],"; {|  "steal_volume": [|} ]
    @ [ String.concat ",\n" (List.map steal_volume_json svs) ]
    @ [ "  ]"; "}"; "" ])

let validate =
  Schema.check ~label:"BENCH_mp.json"
    ~required:
      [
        {|"schema": "abp-mp/5"|};
        {|"mode"|};
        {|"quantum_ms"|};
        {|"fit"|};
        {|"c1"|};
        {|"cinf"|};
        {|"max_ratio"|};
        {|"pbar"|};
        {|"pbar_procs"|};
        {|"adversaries"|};
        {|"adversary":"dedicated"|};
        {|"adversary":"starve-workers:width=2"|};
        {|"yield":"all"|};
        {|"yield":"none"|};
        {|"failed_per_task"|};
        {|"gate_suspends"|};
        {|"antagonist"|};
        {|"spinners"|};
        {|"deque":"locked"|};
        {|"yield":"local"|};
        {|"slowdown"|};
        {|"steal_volume"|};
        {|"tinf_nodes"|};
        {|"stolen_tasks"|};
        {|"steal_ratio"|};
      ]

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "exp_mp [--smoke] [--json FILE] [--repeats N]";
  if !repeats < 1 then begin
    Printf.eprintf "--repeats must be >= 1\n";
    exit 2
  end;
  Printf.printf "== E29 multiprogramming harness (%s mode, %d repeats, quantum %.2fms) ==\n%!"
    (if !smoke then "smoke" else "full")
    !repeats
    (quantum () *. 1e3);
  let ips = calibrate () in
  Printf.printf "calibration: %.0f spin iters/s\n%!" ips;
  let points = fit_points ips in
  let fit =
    Abp.Regression.fit_two_term
      (Array.of_list
         (List.map
            (fun pt ->
              ( pt.pt_t1 /. pt.pt_pbar,
                pt.pt_tinf *. float_of_int pt.pt_p /. pt.pt_pbar,
                pt.pt_seconds ))
            points))
  in
  let ratio =
    Abp.Regression.max_ratio
      (Array.of_list (List.map (fun pt -> (pt.pt_seconds, pt.pt_bound)) points))
  in
  List.iter
    (fun pt ->
      Printf.printf "  %-8s %-16s Pbar %.2f  T %.3fs  bound %.3fs  ratio %.2f\n" pt.pt_workload
        pt.pt_duty pt.pt_pbar pt.pt_seconds pt.pt_bound (pt.pt_seconds /. pt.pt_bound))
    points;
  Printf.printf "  fit: T = %.2f*(T1/Pbar) + %.2f*(Tinf*P/Pbar)  r2=%.3f  max ratio %.2f\n%!"
    fit.Abp.Regression.c1 fit.Abp.Regression.c2 fit.Abp.Regression.r2 ratio;
  check_fit points fit ratio;
  let advs = run_adversaries ips in
  List.iter
    (fun g ->
      Printf.printf "  %-26s pbar_procs %.2f (hw %.2f)  %d quanta  %d suspends  T %.3fs\n"
        g.g_adversary g.g_pbar_procs g.g_pbar g.g_quanta g.g_suspends g.g_median)
    advs;
  check_adversaries advs;
  let yields = run_yield ips in
  List.iter
    (fun g ->
      Printf.printf "  starve-workers yield=%-6s T %.3fs  failed steals/task %.1f\n" g.g_yield
        g.g_median (failed_per_task g))
    yields;
  check_yield yields;
  let antags = run_antagonist ips in
  List.iter
    (fun a ->
      Printf.printf "  antagonist %-6s yield=%-5s T %.3fs alone, %.3fs beside %d spinners: slowdown %.2fx\n"
        a.a_deque a.a_yield a.a_alone a.a_loaded antag_spinners (slowdown a))
    antags;
  check_antagonist antags;
  let svs = run_steal_volume ips in
  List.iter
    (fun sv ->
      Printf.printf "  steal volume %-5s P*Tinf %d  stolen %d  ratio %.2f\n" sv.sv_workload (sv.sv_p * sv.sv_tinf_nodes) sv.sv_stolen sv.sv_ratio)
    svs;
  check_steal_volume svs;
  let oc = open_out !json_file in
  output_string oc (to_json points fit ratio advs yields antags svs);
  close_out oc;
  validate !json_file;
  Printf.printf "wrote %s (schema ok)\n" !json_file
