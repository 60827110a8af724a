module Pool = Abp_hood.Pool
module Adversary = Abp_kernel.Adversary
module Yield = Abp_kernel.Yield
module Counters = Abp_trace.Counters
module Clock = Abp_trace.Clock

type t = {
  gate : Gate.t;
  pool : Pool.t;
  adversary : Adversary.t;
  yield : Yield.t;
  quantum : float;
  ncores : int;
  stop_flag : bool Atomic.t;
  (* Worker i sets its flag on a failed steal (directed yield); the
     controller drains the flags once per quantum.  Lock-free on the
     worker side: the thief never blocks reporting a yield. *)
  pending_yield : bool Atomic.t array;
  (* Quantum statistics, written by the controller domain, read by
     anyone (pbar accessors, the bench).  The time-weighted integrals
     are the utilization sampler: each grant set is weighted by the
     wall time it was actually in force, because on a loaded machine
     the controller's own wakeups are delayed unevenly — busy (all
     granted) phases stretch while idle (all revoked) phases stay on
     schedule, so counting quanta instead of integrating time would
     overstate how much the adversary withheld. *)
  quanta : int Atomic.t;
  time_total : float Atomic.t;
  time_procs : float Atomic.t;
  time_hw : float Atomic.t;
  mutable domain : unit Domain.t option;
  stop_lock : Mutex.t;
}

let popcount set = Array.fold_left (fun n b -> if b then n + 1 else n) 0 set

(* Progress proxy for the adaptive adversary's [has_assigned]: tasks the
   worker acquired (own pops + stolen + injected).  A worker that moved
   since the last quantum, or whose deque is non-empty, counts as
   holding work; an idle thief counts as empty-handed. *)
let progress c = Counters.(get c pops + get c stolen_tasks + get c inject_tasks)

let quantum_step t prev_progress last_granted =
  (* Convert the thieves' directed yields into kernel obligations.
     Only this domain touches the tracker, so no lock is needed.  The
     gate is cooperative, so a thief whose gate closed may still fail a
     steal on its way to the next safe point; a process the kernel has
     descheduled cannot yield, so that report is dropped.  Kept, it
     could target another revoked thief that did the same, and the two
     obligations would wait on each other forever. *)
  Array.iteri
    (fun i pending ->
      if Atomic.exchange pending false && last_granted.(i) then Yield.on_yield t.yield ~proc:i)
    t.pending_yield;
  (* A yield was raised during the previous quantum, i.e. while
     [last_granted] was the set actually running — the analogue of the
     simulator's "a target running in the same round as the yield
     counts".  Discharging against that set here is what breaks yield
     cycles: two thieves that yielded to each other were both running
     when they yielded, so both obligations clear.  Without this, a
     cycle leaves both permanently descheduled — [repair] waits for a
     target that [repair] itself keeps revoking — which on hardware is
     a deadlock if one of them suspended mid-task at its gate.  With
     both rules, every obligation's yielder ran in the quantum before
     it was raised, which discharged any older obligation aimed at it,
     so no cycle can form. *)
  Yield.note_scheduled t.yield last_granted;
  let p = Pool.size t.pool in
  let counters = Pool.counters t.pool in
  let round = Atomic.get t.quanta + 1 in
  let view =
    {
      Adversary.round;
      num_processes = p;
      has_assigned =
        (fun i ->
          Pool.deque_size t.pool i > 0 || progress counters.(i) > prev_progress.(i));
      deque_size = (fun i -> Pool.deque_size t.pool i);
      in_critical_section = (fun _ -> false);
    }
  in
  let proposed = Adversary.choose t.adversary view in
  let granted = Yield.repair t.yield proposed in
  (* Yields are advisory.  In this asynchronous adaptation all P workers
     can hold pending obligations at once (e.g. every thief fails a
     steal in the same quantum — impossible in the round-based
     simulator, where a yielding process necessarily ran its round), and
     then [repair] of any non-empty proposal is the empty set, forever:
     nobody runs, so nobody's obligation is ever discharged.  Fall back
     to the adversary's own choice; [note_scheduled] on it discharges
     the stuck obligations. *)
  let granted = if popcount granted = 0 && popcount proposed > 0 then proposed else granted in
  Gate.set t.gate granted;
  Yield.note_scheduled t.yield granted;
  Array.blit granted 0 last_granted 0 (Array.length granted);
  Array.iteri (fun i c -> prev_progress.(i) <- progress c) counters;
  Atomic.incr t.quanta;
  popcount granted

(* One step per quantum, on absolute deadlines: [Clock.sleep_until]
   never returns early and runs with 1 ns timer slack, so a tick lands
   within microseconds of its deadline instead of a whole default slack
   (50 µs) late.  A step that overruns its quantum is not caught up
   with a burst of back-to-back steps: the next deadline is clamped to
   the present, and the schedule carries on from there. *)
let loop t =
  let prev_progress = Array.make (Pool.size t.pool) 0 in
  (* Gates start open, so the window before the first step counts as
     fully granted. *)
  let last_granted = Array.make (Pool.size t.pool) true in
  let prev_granted = ref (Pool.size t.pool) in
  let quantum_ns = Clock.of_s t.quantum in
  let last = ref (Clock.now ()) in
  let next = ref !last in
  while not (Atomic.get t.stop_flag) do
    (* Stamp the step before it applies the new set: opening gates
       wakes workers that can preempt this domain mid-step, and the
       set takes effect as the first gate opens, not when the step
       returns. *)
    let now = Clock.now () in
    let dt = Clock.to_s (now - !last) in
    Atomic.set t.time_total (Atomic.get t.time_total +. dt);
    Atomic.set t.time_procs (Atomic.get t.time_procs +. (float_of_int !prev_granted *. dt));
    Atomic.set t.time_hw
      (Atomic.get t.time_hw +. (float_of_int (min !prev_granted t.ncores) *. dt));
    last := now;
    prev_granted := quantum_step t prev_progress last_granted;
    next := max (!next + quantum_ns) (Clock.now ());
    Clock.sleep_until !next
  done

let create ?(quantum = 1e-3) ?(yield = Yield.No_yield) ?ncores ?rng ~gate ~pool adversary =
  if quantum <= 0.0 then invalid_arg "Controller.create: quantum > 0 required";
  let p = Pool.size pool in
  if Gate.num_workers gate <> p then
    invalid_arg "Controller.create: gate size does not match pool size";
  let ncores =
    match ncores with Some n -> max 1 n | None -> Domain.recommended_domain_count ()
  in
  let rng =
    match rng with Some r -> r | None -> Abp_stats.Rng.create ~seed:0x9e3779b97f4a7c15L ()
  in
  let t =
    {
      gate;
      pool;
      adversary;
      yield = Yield.create yield ~num_processes:p ~rng;
      quantum;
      ncores;
      stop_flag = Atomic.make false;
      pending_yield = Array.init p (fun _ -> Abp_deque.Padding.atomic false);
      quanta = Abp_deque.Padding.atomic 0;
      time_total = Abp_deque.Padding.atomic 0.0;
      time_procs = Abp_deque.Padding.atomic 0.0;
      time_hw = Abp_deque.Padding.atomic 0.0;
      domain = None;
      stop_lock = Mutex.create ();
    }
  in
  Gate.set_steal_fail gate (fun i -> Atomic.set t.pending_yield.(i) true);
  t

let start t =
  Mutex.lock t.stop_lock;
  if t.domain = None && not (Atomic.get t.stop_flag) then
    t.domain <- Some (Domain.spawn (fun () -> loop t));
  Mutex.unlock t.stop_lock

let stop t =
  Atomic.set t.stop_flag true;
  (* Fast path: reopen gates right away so suspended workers resume
     while we wait out the controller's final quantum.  Not sufficient
     on its own — the controller may be mid-[quantum_step] (the flag is
     only checked at the loop top) and re-close gates via [Gate.set]
     after this. *)
  Gate.open_all t.gate;
  Mutex.lock t.stop_lock;
  let d = t.domain in
  t.domain <- None;
  Mutex.unlock t.stop_lock;
  (* The controller domain never blocks on a gate, so joining first
     always terminates (within ~one quantum). *)
  Option.iter Domain.join d;
  (* Authoritative reopen AFTER the join: no further [Gate.set] can
     race it, so every gate is guaranteed open before the caller's
     [Pool.shutdown] — a worker blocked in [Gate.wait] cannot observe
     the pool's shutdown flag, so a gate left closed here would
     deadlock that shutdown. *)
  Gate.open_all t.gate;
  Gate.set_steal_fail t.gate ignore

let quanta t = Atomic.get t.quanta

let pbar_procs t =
  let total = Atomic.get t.time_total in
  if total <= 0.0 then float_of_int (Pool.size t.pool)
  else Atomic.get t.time_procs /. total

let pbar t =
  let total = Atomic.get t.time_total in
  if total <= 0.0 then float_of_int (min (Pool.size t.pool) t.ncores)
  else Atomic.get t.time_hw /. total

let suspended_seconds t = Gate.total_suspended_seconds t.gate
let adversary_name t = Adversary.name t.adversary
let yield_kind t = Yield.kind t.yield
