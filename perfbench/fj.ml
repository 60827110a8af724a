(* The fork-join workloads: [fork_join] (dedicated processors) and
   [fork_join_mp] (the same job under the paper's kernel adversary).

   A job is one [Pool.run] of three parts, back to back:
   - a spawn tree: a binary tree over the seeded leaf array with a
     [Future.spawn] at every internal node, so the deque owner path,
     stealing and [Future.force] suspension (the fiber local resume
     path) carry the job;
   - [Par.nqueens]: irregular backtracking;
   - [Par.parallel_reduce] over the seeded value array: lazy splitting.
   The load is a closed loop — one job at a time, the next one starting
   when the previous one returned — with the caller as worker 0. *)

open Util

let leaf_iters = 500
let queens = 7

(* ---- The job and its sequential reference. ---- *)

let rec tree leaves lo hi =
  if hi - lo = 1 then Gen.compute leaves.(lo) leaf_iters
  else
    let mid = (lo + hi) / 2 in
    let left = Abp.Future.spawn (fun () -> tree leaves lo mid) in
    let right = tree leaves mid hi in
    Abp.Future.force left + right

let rec tree_seq leaves lo hi =
  if hi - lo = 1 then Gen.compute leaves.(lo) leaf_iters
  else
    let mid = (lo + hi) / 2 in
    tree_seq leaves lo mid + tree_seq leaves mid hi

let mix v = (v * 0x2545F491) lxor (v lsr 7)

(* Independent oracle for [Par.nqueens]: bitmask backtracking. *)
let queens_seq n =
  let all = (1 lsl n) - 1 in
  let rec go cols d1 d2 =
    if cols = all then 1
    else
      let free = ref (all land lnot (cols lor d1 lor d2)) and count = ref 0 in
      while !free <> 0 do
        let bit = !free land - !free in
        free := !free lxor bit;
        count := !count + go (cols lor bit) ((d1 lor bit) lsl 1) ((d2 lor bit) lsr 1)
      done;
      !count
  in
  go 0 0 0

type answer = { tree_sum : int; queen_count : int; reduce_sum : int }

let reference (inp : Gen.fj) =
  {
    tree_sum = tree_seq inp.leaves 0 (Array.length inp.leaves);
    queen_count = queens_seq queens;
    reduce_sum = Array.fold_left (fun acc v -> acc + mix v) 0 inp.values;
  }

(* [stamp k] marks the end of part [k - 1] (0 = job body start); the
   untraced job passes a no-op. *)
let job (inp : Gen.fj) ~stamp () =
  stamp 0;
  let tree_sum = tree inp.leaves 0 (Array.length inp.leaves) in
  stamp 1;
  let queen_count = Abp.Par.nqueens queens in
  stamp 2;
  let reduce_sum =
    Abp.Par.parallel_reduce ~lo:0 ~hi:(Array.length inp.values) ~init:0 ~combine:( + ) (fun i ->
        mix inp.values.(i))
  in
  stamp 3;
  { tree_sum; queen_count; reduce_sum }

(* ---- Instances. ---- *)

(* fork_join_mp's fixed oblivious adversary: every worker runs for
   [duty_on] quanta, then none for [duty_off] — the one pattern whose
   processor average shows on a machine with as few cores as workers.
   A job meets an off stretch with probability about (job + off) /
   cycle, about 5% here, so the median and p90 job sit clearly in the
   unhit mode and the p99 job in the hit one: a figure that falls
   between the two modes swings by tens of percent from seed to seed. *)
let duty_on = 31
let duty_off = 1
let quantum = 2e-3

type inst = { pool : Abp.Pool.t; ctl : Abp.Controller.t option }

let create ~mp () =
  if not mp then { pool = Abp.Pool.create ~processes:nproc (); ctl = None }
  else
    let gate = Abp.Gate.create ~num_workers:nproc in
    let pool =
      Abp.Pool.create ~processes:nproc ~yield_kind:Abp.Pool.Yield_to_random
        ~gate:(Abp.Gate.hook gate) ()
    in
    let adv = Abp.Adversary.duty_cycle ~num_processes:nproc ~on:duty_on ~off:duty_off in
    let ctl =
      Abp.Controller.create ~quantum ~yield:Abp.Yield.Yield_to_random ~gate ~pool adv
    in
    Abp.Controller.start ctl;
    { pool; ctl = Some ctl }

let destroy inst =
  (* Gates must reopen before the pool joins its workers. *)
  Option.iter Abp.Controller.stop inst.ctl;
  Abp.Pool.shutdown inst.pool

let no_stamp _ = ()
let warmup_jobs = 10

(* Set-up: create the instance and run a few jobs so every domain has
   started and the deques and minor heaps are warm. *)
let setup ~mp inp =
  let inst = create ~mp () in
  for _ = 1 to warmup_jobs do
    ignore (Abp.Pool.run inst.pool (job inp ~stamp:no_stamp))
  done;
  inst

(* ---- Passes. ---- *)

type pass = {
  lat_ms : float array;  (** per job: [Pool.run] wall time *)
  start_ns : int array;  (** per job: start, relative to the pass *)
  span_ns : int;  (** pass length *)
  late_us : float array;  (** per job: start minus the previous job's return *)
  parts_ms : float array array;  (** per part, per job (traced only) *)
  unexplained : float array;  (** per job: share of wall time outside the parts *)
  stamps : int array;  (** traced: per job, run start, the four part marks, run return *)
  attempted : int;
  failed : int;
  counters : (string * int) list;  (** pool telemetry accrued by the pass *)
  pbar : float;
}

let counter_fields pool = pool_fields [ pool ]

(* Run jobs back to back for [seconds] on a set-up instance, then shut it
   down.  [plant] makes one job's answer wrong, to prove the check. *)
let run_pass inst inp ~expected ~seconds ~traced ~plant =
  let before = counter_fields inst.pool in
  let lat = Buf.create () and late = Buf.create () in
  let marks = Array.make 4 0 in
  let parts = Array.init 3 (fun _ -> Buf.create ()) and unexpl = Buf.create () in
  let stamps = Buf.create () in
  let stamp = if traced then fun k -> marks.(k) <- now () else no_stamp in
  let attempted = ref 0 and failed = ref 0 in
  let stop = now () + int_of_float (seconds *. 1e9) in
  let prev = ref (now ()) and starts = Buf.create () in
  let first = !prev in
  while now () < stop do
    let t0 = now () in
    let ans = Abp.Pool.run inst.pool (job inp ~stamp) in
    let t1 = now () in
    incr attempted;
    let ans = if plant && !attempted = 2 then { ans with tree_sum = ans.tree_sum + 1 } else ans in
    if ans <> expected then incr failed;
    Buf.push lat (t1 - t0);
    Buf.push late (t0 - !prev);
    Buf.push starts (t0 - first);
    prev := t1;
    if traced then begin
      for k = 0 to 2 do
        Buf.push parts.(k) (marks.(k + 1) - marks.(k))
      done;
      Buf.push unexpl (t1 - t0 - (marks.(3) - marks.(0)));
      List.iter (Buf.push stamps) [ t0; marks.(0); marks.(1); marks.(2); marks.(3); t1 ]
    end
  done;
  let pbar =
    match inst.ctl with Some c -> Abp.Controller.pbar c | None -> float_of_int nproc
  in
  destroy inst;
  let lat_ns = Buf.to_array lat in
  {
    lat_ms = Array.map ms lat_ns;
    start_ns = Buf.to_array starts;
    span_ns = int_of_float (seconds *. 1e9);
    late_us = Array.map us (Buf.to_array late);
    parts_ms = Array.map (fun b -> Array.map ms (Buf.to_array b)) parts;
    unexplained =
      Array.mapi (fun i u -> float_of_int u /. float_of_int lat_ns.(i)) (Buf.to_array unexpl);
    stamps = Buf.to_array stamps;
    attempted = !attempted;
    failed = !failed;
    counters = diff_fields (counter_fields inst.pool) before;
    pbar;
  }

(* Write the traced pass's spans, one line per span: job, name, start
   and end (ns, relative to the first job), and the causing span. *)
let write_spans p path =
  let oc = open_out path in
  let s = p.stamps in
  let base = if Array.length s > 0 then s.(0) else 0 in
  output_string oc "job\tspan\tstart_ns\tend_ns\tparent\n";
  for j = 0 to (Array.length s / 6) - 1 do
    let at k = s.((6 * j) + k) - base in
    Printf.fprintf oc "%d\tjob\t%d\t%d\t-\n" j (at 0) (at 5);
    List.iteri
      (fun k name -> Printf.fprintf oc "%d\t%s\t%d\t%d\tjob\n" j name (at (k + 1)) (at (k + 2)))
      [ "spawn_tree"; "nqueens"; "reduce" ]
  done;
  close_out oc

(* Sequential job time T1 for the efficiency figure: the same job on a
   one-worker pool, median of a few runs. *)
let t1_ms inp =
  let pool = Abp.Pool.create ~processes:1 () in
  let times =
    Array.init 5 (fun _ ->
        let t0 = now () in
        ignore (Abp.Pool.run pool (job inp ~stamp:no_stamp));
        ms (now () - t0))
  in
  Abp.Pool.shutdown pool;
  median times

(* The job split into its parts, on a fresh dedicated pool — the
   fallback source of the [fj.*] figures on workloads that run no job. *)
let parts_rung inp ~expected =
  let inst = setup ~mp:false inp in
  let p = run_pass inst inp ~expected ~seconds:0.1 ~traced:true ~plant:false in
  Array.map median p.parts_ms
