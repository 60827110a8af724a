(* The worker side of the Hood pool: the state every worker of a pool
   shares, one worker's record, the Figure 3 scheduling loop, and the
   hooks [Future], [Par] and the serving layer call from inside a task.
   {!Pool} builds the state, spawns the domains that run [worker_loop]
   and owns the public lifecycle. *)

module Counters = Abp_trace.Counters
module Sink = Abp_trace.Sink
module Fiber = Abp_fiber.Fiber

(* What a thief does on an empty-handed trip through the loop (Figure 3
   line 15).  [Yield_local] is the classic backoff ladder, starting with
   an OS yield; [No_yield] the hot-spin ablation; with a gate attached,
   the directed kinds swap the OS yield for a report to the
   preemption-gate controller, which applies the paper's
   yieldToRandom/yieldToAll kernel-directive semantics (Section 4.4).
   Without a gate attached they behave exactly like [Yield_local]. *)
type yield_kind = No_yield | Yield_local | Yield_to_random | Yield_to_all

(* Cooperative preemption gate (the multiprogramming harness, lib/mp):
   [poll] is the fast path (one atomic read when the gate is open);
   [wait] blocks until the controller reopens the worker's gate and
   returns the seconds spent blocked; [on_steal_fail] is the directed
   stage-1 yield escalation.  The pool only calls these at safe points
   where the worker holds no acquired-but-unpublished tasks. *)
type gate_hook = {
  poll : int -> bool;
  wait : int -> float;
  on_steal_fail : int -> unit;
}

(* A work source polled after the own-deque pop and the steal attempt
   have both come up empty — Figure 3's two sources extended by an
   ordered list (the resume inbox, then the caller's [sources]).  The
   worker walks the list and runs the first task any source yields;
   [pending] is the advisory emptiness check the parking protocol ORs
   over the whole list.  All per-source telemetry lives in the source:
   [note] bumps its counters on every poll (told whether the take
   yielded a task), and [event], if any, is emitted on a non-empty
   take. *)
type source = {
  take : unit -> (unit -> unit) option;
  pending : unit -> bool;
  note : Counters.t -> bool -> unit;
  event : Abp_trace.Event.kind option;
}

(* One worker's deque as its four operations, closed over it.  The
   deque implementation is chosen once, at [Pool.create], so the loop
   below exists once and each operation is one closure call (without
   flambda no deque method would be inlined into the loop anyway). *)
type deque = {
  push : (unit -> unit) -> int;
  pop_bottom : unit -> unit -> unit;
  pop_top : unit -> unit -> unit;
  size : unit -> int;
}

(* What a pop returns instead of a task ([empty]: it saw the deque
   empty; [lost]: it lost a CAS or its last task to a thief). *)
let empty () = failwith "Worker.empty: a sentinel ran"
let lost () = failwith "Worker.lost: a sentinel ran"

(* Note what is NOT here: no aggregate steal counters.  Steal accounting
   lives entirely in the per-worker (cache-line-padded) [Counters.t]
   records, so a steal attempt — successful or failed — writes no shared
   atomic; [Pool.steal_attempts]/[successful_steals] sum the records on
   demand. *)
type pool = {
  deques : deque array;
  shutdown_flag : bool Atomic.t;
  run_lock : Mutex.t;
  mutable domains : unit Domain.t array;
  size : int;
  yield_kind : yield_kind;
  park_after_ns : int;  (* idle time before a thief parks; [Pool.create]'s [park_after] *)
  (* The multiprogramming gate, if any.  Checked at safe points only; a
     pool created without one pays a single branch on this immutable
     field per scheduling-loop iteration. *)
  gate : gate_hook option;
  (* Polled in order after the steal: the resume inbox first, then the
     [sources] given to [create]. *)
  sources : source array;
  (* [spawn_all]: every worker including id 0 is a spawned domain (the
     lib/serve mode, where work arrives through [sources] rather than
     a [run] caller); [run] is rejected on such pools. *)
  all_spawned : bool;
  counters : Counters.t array;  (* per-worker; the sink's records when traced *)
  trace : Sink.t option;
  (* Idle thieves park here until the next [push_task] or [shutdown];
     a push with nobody parked pays one atomic read. *)
  parking : Parking.t;
  (* First exception raised by a task in a worker loop; re-raised at the
     [run]/[shutdown] boundary instead of silently killing the domain. *)
  pending_exn : (exn * Printexc.raw_backtrace) option Atomic.t;
  (* Fiber resume inbox: parked continuations made ready by a fulfil
     that happened OFF this pool's workers (a backend domain, another
     pool's worker with no context).  Workers drain it as [sources.(0)];
     [resume_n] (padded) gives its [pending] check a lock-free emptiness
     test.  A fulfil performed ON a worker skips this entirely — the
     continuation goes straight onto that worker's own deque like any
     spawned task. *)
  resume_lock : Mutex.t;
  resume_q : (unit -> unit) Queue.t;
  resume_n : int Atomic.t;
  (* Continuations currently parked on promises under this pool's
     handler: the gauge behind the await-aware conservation invariant
     and the [suspended_peak] counter. *)
  n_suspended : int Atomic.t;
  (* The fiber scheduler wrapped around every task this pool executes.
     Built right after the record (its closures capture it);
     [inline_sched] only until [Pool.create] replaces it, before any
     worker spawns. *)
  mutable fsched : Fiber.sched;
}

type t = {
  pool : pool;
  id : int;
  dq : deque;  (* [pool.deques.(id)], hoisted out of the loops *)
  rng_state : Abp_stats.Rng.t;
  c : Counters.t;  (* own padded record, hoisted out of the loops *)
  mutable failed_steals : int;
      (* consecutive empty-handed trips through the worker loop;
         resets on any acquired task, drives the backoff *)
  mutable idle_since : int;
      (* [Clock.now] at the first of those trips: the start of the idle
         window that decides when the thief parks *)
}

let make pool id =
  {
    pool;
    id;
    dq = pool.deques.(id);
    rng_state = Abp_stats.Rng.create ~seed:(Int64.of_int (0x9E36 + id)) ();
    c = pool.counters.(id);
    failed_steals = 0;
    idle_since = 0;
  }

(* Counter bumps write only the worker's own padded record (cache-
   local, no atomics); events go to the worker's own ring and only
   when a sink with an event ring is attached. *)
let emit w ?arg kind =
  match w.pool.trace with
  | Some s -> Sink.emit s ~worker:w.id ?arg kind
  | None -> ()

let wake p = Parking.wake_all p.parking

(* Blocked at a closed preemption gate: count the suspension, integrate
   the suspended wall-clock time (the utilization sampler's per-worker
   term), and bracket it with Suspend/Resume events. *)
let checkpoint_blocked w g =
  let c = w.c in
  Counters.incr c Counters.gate_suspends;
  emit w Abp_trace.Event.Suspend;
  let secs = g.wait w.id in
  Counters.add_n c Counters.gate_wait_ns (int_of_float (secs *. 1e9));
  emit w Abp_trace.Event.Resume

(* Safe-point check of the multiprogramming preemption gate.  Called
   only where the worker holds no acquired-but-unpublished tasks: at
   the top of the scheduling loop (i.e. after each completed task),
   between failed steal attempts, before parking, and once per pending
   {!Future.force} (before its work-first pop, so a chain of inline
   joins still crosses a safe point at every node).  Every acquisition
   moves exactly one task, which the worker runs before its next safe
   point, so a worker suspended at a gate can never strand
   transferable work — everything else it owns sits in its deque,
   stealable by the workers that remain scheduled. *)
let[@inline] checkpoint w =
  match w.pool.gate with
  | None -> ()
  | Some g -> if not (g.poll w.id) then checkpoint_blocked w g

let push_task w task =
  let size = w.dq.push task in
  let c = w.c in
  Counters.incr c Counters.pushes;
  Counters.note_max c Counters.deque_high_water size;
  emit w Abp_trace.Event.Spawn;
  Parking.wake_one w.pool.parking

let local_deque_size w = w.dq.size ()

(* One steal attempt from a uniformly random other victim, or [empty]. *)
let steal w =
  let pool = w.pool in
  let c = w.c in
  if pool.size = 1 then empty
  else begin
    let v = Abp_stats.Rng.int w.rng_state (pool.size - 1) in
    let victim = if v >= w.id then v + 1 else v in
    Counters.incr c Counters.steal_attempts;
    let task = pool.deques.(victim).pop_top () in
    if task == empty || task == lost then begin
      Counters.incr c (if task == empty then Counters.steal_empties else Counters.cas_failures_pop_top);
      emit w ~arg:victim Abp_trace.Event.Idle;
      empty
    end
    else begin
      Counters.incr c Counters.successful_steals;
      Counters.incr c Counters.stolen_tasks;
      Counters.note_victim c victim;
      emit w ~arg:victim Abp_trace.Event.Steal;
      task
    end
  end

(* Past the steal: the first source in list order that yields, or [empty]. *)
let poll_sources w =
  let sources = w.pool.sources in
  let n = Array.length sources in
  let rec go i =
    if i >= n then empty
    else
      let s = Array.unsafe_get sources i in
      match s.take () with
      | None ->
          s.note w.c false;
          go (i + 1)
      | Some task ->
          s.note w.c true;
          (match s.event with Some k -> emit w k | None -> ());
          task
  in
  go 0

(* The owner pop of Figure 3: [empty] on an empty deque or when the
   last task was lost to a thief mid-popBottom. *)
let pop_bottom w =
  let task = w.dq.pop_bottom () in
  if task == lost then Counters.incr w.c Counters.cas_failures_pop_bottom
  else if task != empty then begin
    Counters.incr w.c Counters.pops;
    emit w Abp_trace.Event.Execute
  end;
  if task == lost then empty else task

let try_get_task w =
  let task = pop_bottom w in
  if task != empty then task
  else
    let task = steal w in
    if task != empty then task else poll_sources w

(* Work-first join ({!Future.force}): pop the own deque's bottom and
   report whether it is [task] (physical equality on the closure) —
   Manticore's [@pop-new-end].  A hit is an ordinary pop; the caller
   runs the task inline.  Anything else is pushed straight back and
   counts nothing, so [pushes = pops + stolen_tasks] still holds at
   quiescence; the re-push wakes parked thieves like any push, since
   one may have parked while the deque looked empty. *)
let pop_own w task =
  let t = w.dq.pop_bottom () in
  if t == task then begin
    Counters.incr w.c Counters.pops;
    emit w Abp_trace.Event.Execute
  end
  else if t == lost then Counters.incr w.c Counters.cas_failures_pop_bottom
  else if t != empty then begin
    ignore (w.dq.push t);
    Parking.wake_one w.pool.parking
  end;
  t == task

(* The parking check: some deque is non-empty, or some source is
   pending. *)
let has_work p =
  Array.exists (fun (d : deque) -> d.size () > 0) p.deques || Array.exists (fun s -> s.pending ()) p.sources

let park w =
  let p = w.pool in
  (* Never park with a closed gate: a gate wait under the parking lock
     would deadlock every other parker and the wakers.  A thief woken
     from park while its gate is closed loops back through the worker
     loop and blocks at the checkpoint there, outside the lock. *)
  checkpoint w;
  Parking.park p.parking
    ~ready:(fun () -> Atomic.get p.shutdown_flag || has_work p)
    ~on_wait:(fun () ->
      Counters.incr w.c Counters.parks;
      emit w Abp_trace.Event.Park)

(* An empty-handed trip through the loop (Figure 3 line 15, extended):
   stage 1 is the paper's yield between failed steal attempts, a real
   OS yield ([Clock.yield_cpu], i.e. sched_yield) so that a peer
   preempted on this core runs now; stage 2 a bounded exponential
   cpu_relax backoff; stage 3 parks until the next push, once the
   thief has been idle for [park_after_ns], timed from the first empty
   trip after a task.  The window is time, not a trip count, because a
   trip lasts anywhere from one syscall to a peer's whole timeslice.
   A spurious or stale wakeup only sends the thief around the loop
   again, where its window has long expired.  With
   [No_yield] (the E12/E15 ablation) thieves spin hot: no yield, no
   backoff, no parking.  Under [Yield_to_random]/[Yield_to_all] with
   a gate attached, the gate controller plays the kernel: stage 1 is
   a PAUSE plus a report to the controller, which registers the
   paper's kernel-directive obligation and later closes this
   worker's gate until the obligation discharges.  Without a gate a
   directed kind is exactly [Yield_local]. *)
let backoff_spin_cap = 6  (* at most 2^6 = 64 relaxes per failed trip *)

let idle w =
  let p = w.pool in
  match p.yield_kind with
  | No_yield -> ()
  | kind ->
      let c = w.c in
      Counters.incr c Counters.yields;
      emit w Abp_trace.Event.Yield;
      (match p.gate with
      | Some g when kind = Yield_to_random || kind = Yield_to_all ->
          Counters.incr c Counters.directed_yields;
          Domain.cpu_relax ();
          g.on_steal_fail w.id
      | _ -> Abp_trace.Clock.yield_cpu ());
      let k = w.failed_steals in
      w.failed_steals <- k + 1;
      let now = Abp_trace.Clock.now () in
      if k = 0 then w.idle_since <- now;
      if now - w.idle_since >= p.park_after_ns then park w
      else
        for _ = 1 to 1 lsl Int.min k backoff_spin_cap do
          Domain.cpu_relax ()
        done

let exec w task =
  w.failed_steals <- 0;
  (* Every task body runs under the fiber handler: if it awaits a
     pending promise, [Fiber.run] returns as soon as the continuation
     is parked and this worker falls straight back into the loop.
     A resumed continuation re-installs its own captured handler, so
     the extra wrapper around a resume closure is inert. *)
  try Fiber.run w.pool.fsched task
  with e ->
    (* A raising task must not kill its domain (the pool would wedge:
       the domain's deque keeps its tasks but nobody owns it).  Record
       the first failure for the run/shutdown boundary and keep
       scheduling. *)
    let bt = Printexc.get_raw_backtrace () in
    Counters.incr w.c Counters.task_exceptions;
    ignore (Atomic.compare_and_set w.pool.pending_exn None (Some (e, bt)))

let worker_loop w =
  let p = w.pool in
  while not (Atomic.get p.shutdown_flag) do
    checkpoint w;
    let task = try_get_task w in
    if task == empty then idle w else exec w task
  done

(* Scheduling loop for the [run] caller's domain: keep executing pool
   work until [stop ()].  Unlike [worker_loop] it never parks; it
   relaxes instead.  A wake would reach a parked caller: [Pool.run]'s
   body calls [wake] right after it publishes the result, wherever its
   continuation completes.  What parking waits for is a check of the
   pool-level park/wake (the pending check across every source and
   sibling pool, which no model check covers yet) and a watchdog that
   turns a lost wakeup into a diagnosis instead of a hang. *)
let help_until w stop =
  while not (stop ()) do
    checkpoint w;
    let task = try_get_task w in
    if task == empty then Domain.cpu_relax () else exec w task
  done

(* Run the own deque empty with owner pops only.  The final, empty pop
   is Figure 5's reset of [bot] and [age.top] to 0.  The [run] caller
   needs it at the start of each run, because no loop pops its deque
   between runs: without it, tasks stolen from the bottom-indexed array
   would leave [bot] where they were pushed, and the fixed-size Abp
   deque would creep into overflow one run at a time.  [Pool.shutdown]
   runs it too, so that a task the last run left unforced still runs. *)
let rec drain_own w =
  checkpoint w;
  let task = pop_bottom w in
  if task != empty then begin
    exec w task;
    drain_own w
  end

(* Per-domain worker identity. *)
let context_key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* The executing worker's counter record, published via DLS so code
   running inside a task (the serving layer's lane arbiter, the fiber
   hooks) can attribute telemetry to whichever worker runs it.  Kept
   beside [context_key] so that reading it allocates no option. *)
let exec_counters_key : Counters.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () =
  match !(Domain.DLS.get context_key) with
  | Some w -> w
  | None -> failwith "Hood: not inside a pool worker (use Pool.run)"

let self_id () = match !(Domain.DLS.get context_key) with Some w -> Some w.id | None -> None
let self_pool () = match !(Domain.DLS.get context_key) with Some w -> Some w.pool | None -> None
let exec_counters () = !(Domain.DLS.get exec_counters_key)
let fiber_sched p = p.fsched

let with_context w f =
  let slot = Domain.DLS.get context_key in
  let cslot = Domain.DLS.get exec_counters_key in
  let saved = !slot and csaved = !cslot in
  slot := Some w;
  cslot := Some w.c;
  Fun.protect
    ~finally:(fun () ->
      slot := saved;
      cslot := csaved)
    f

(* Emit a [Fiber] event ([arg] 0 = suspend, 1 = resume) to the current
   worker's OWN pool's sink — its own single-writer ring — which may
   differ from the pool owning the handler when a continuation has
   migrated across a shard boundary. *)
let emit_fiber_event arg =
  match !(Domain.DLS.get context_key) with
  | Some w -> emit w ~arg Abp_trace.Event.Fiber
  | None -> ()

(* Hand an externally produced ready continuation to [p]'s workers:
   enqueue on the resume inbox, then wake parked thieves.  The wake
   follows the [resume_n] increment that [has_work] reads, as
   {!Parking} requires. *)
let resume_push p k =
  Mutex.lock p.resume_lock;
  Queue.push k p.resume_q;
  Atomic.incr p.resume_n;
  Mutex.unlock p.resume_lock;
  wake p

(* The pool's fiber scheduler — the [sched] record [Fiber.run] is
   parameterized by, installed around every task body by [exec].  The
   closures resolve the CURRENT worker dynamically (via DLS) rather
   than capturing one: a continuation resumes under its original
   handler on whichever worker runs it, so a captured worker would be
   the wrong one (and a cross-thread push is owner-only). *)
let make_fiber_sched p =
  let schedule task =
    match !(Domain.DLS.get context_key) with
    (* Fulfilled from a worker (of any pool): the continuation becomes
       an ordinary task on the fulfiller's own deque — locality for
       same-pool wakes, natural cross-shard migration otherwise. *)
    | Some w -> push_task w task
    (* Fulfilled off-pool (a backend domain): hand it to the handler's
       home pool through the resume inbox. *)
    | None -> resume_push p task
  in
  let on_suspend () =
    let n = 1 + Atomic.fetch_and_add p.n_suspended 1 in
    (match exec_counters () with
    | Some c ->
        Counters.incr c Counters.suspensions;
        Counters.note_max c Counters.suspended_peak n
    | None -> ());
    emit_fiber_event 0
  in
  let on_resume () =
    Atomic.decr p.n_suspended;
    (match exec_counters () with Some c -> Counters.incr c Counters.resumes | None -> ());
    emit_fiber_event 1
  in
  { Fiber.schedule; on_suspend; on_resume }
