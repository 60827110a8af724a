type deque_impl = Abp | Circular | Locked

(* What a thief does on an empty-handed trip through the loop (Figure 3
   line 15).  [Yield_local] is the classic backoff ladder, starting with
   an OS yield; [No_yield] the hot-spin ablation; with a gate attached,
   the directed kinds swap the OS yield for a report to the
   preemption-gate controller, which applies the paper's
   yieldToRandom/yieldToAll kernel-directive semantics (Section 4.4).
   Without a gate attached they behave exactly like [Yield_local]. *)
type yield_kind = No_yield | Yield_local | Yield_to_random | Yield_to_all

let yield_kind_name = function
  | No_yield -> "none"
  | Yield_local -> "local"
  | Yield_to_random -> "random"
  | Yield_to_all -> "all"

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

module Spec = Abp_deque.Spec
module Counters = Abp_trace.Counters
module Sink = Abp_trace.Sink
module Padding = Abp_deque.Padding
module Fiber = Abp_fiber.Fiber

let default_park_threshold = 16

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

(* State independent of the deque implementation.  Note what is NOT
   here: no aggregate steal counters.  Steal accounting lives entirely in
   the per-worker (cache-line-padded) [Counters.t] records, so a steal
   attempt — successful or failed — writes no shared atomic; the public
   [steal_attempts]/[successful_steals] accessors sum the records on
   demand. *)
type shared = {
  shutdown_flag : bool Atomic.t;
  run_lock : Mutex.t;
  mutable domains : unit Domain.t array;
  size : int;
  yield_kind : yield_kind;
  park_threshold : int;
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
  (* Thief parking: idle thieves that exhaust their backoff block here
     until the next [push_task] or [shutdown].  [n_parked] (padded, its
     own cache line) gates the waker's fast path: a push reads it once
     and takes the lock only when someone is actually waiting. *)
  park_lock : Mutex.t;
  park_cond : Condition.t;
  n_parked : int Atomic.t;
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
     Built right after [shared] (its closures capture this record);
     [inline_sched] only until [create] replaces it, before any worker
     spawns. *)
  mutable fsched : Fiber.sched;
}

(* The executing worker's counter record, published via DLS so code
   running inside a task (the serving layer's lane arbiter, the fiber
   hooks) can attribute telemetry to whichever worker runs it.  Kept
   separate from [context_key] (below): those callers need only the
   counters. *)
let exec_counters_key : Counters.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Attribute deadline-lane arbiter telemetry to the executing worker.
   Called by the serving layer from inside its lane source's [take],
   which runs under [with_context] in the worker loop, so the DLS slot
   is populated; a non-worker caller (unit tests driving the closure
   directly) is a silent no-op. *)
let note_lane ~polls ~tasks =
  match !(Domain.DLS.get exec_counters_key) with
  | Some c ->
      Counters.add_n c Counters.lane_polls polls;
      Counters.add_n c Counters.lane_tasks tasks
  | None -> ()

(* Same attribution pattern for a ticket settled past its deadline: the
   worker that ran the job counts the miss. *)
let note_deadline_miss () =
  match !(Domain.DLS.get exec_counters_key) with
  | Some c -> Counters.incr c Counters.deadline_misses
  | None -> ()

(* The whole scheduling loop is a functor over the deque signature,
   instantiated once per deque.  The Abp/Circular/Locked selection
   happens once, at [create]; after that each public entry point below
   costs one dispatch branch.  Inside the functor a deque method is
   still a closure call: without flambda the compiler neither
   specializes nor inlines a functor body, so [push_task] reaches
   [D.push_bottom] through [caml_apply2] and [D.size] through an
   indirect call.  Inlining them would need flambda. *)
module Impl (D : Spec.DETAILED) = struct
  type t = { shared : shared; deques : (unit -> unit) D.t array }

  type worker = {
    pool : t;
    id : int;
    rng_state : Abp_stats.Rng.t;
    c : Counters.t;  (* own padded record, hoisted out of the loops *)
    in_fiber : Fiber.flag;
        (* this domain's fiber-context flag (a worker record is made on
           its own domain and used only there) *)
    mutable failed_steals : int;
        (* consecutive empty-handed trips through the worker loop;
           resets on any acquired task, drives the backoff *)
  }

  let make_worker pool id =
    {
      pool;
      id;
      rng_state = Abp_stats.Rng.create ~seed:(Int64.of_int (0x9E36 + id)) ();
      c = pool.shared.counters.(id);
      in_fiber = Fiber.context_flag ();
      failed_steals = 0;
    }

  (* Counter bumps write only the worker's own padded record (cache-
     local, no atomics); events go to the worker's own ring and only
     when a sink with an event ring is attached. *)
  let emit w ?arg kind =
    match w.pool.shared.trace with
    | Some s -> Sink.emit s ~worker:w.id ?arg kind
    | None -> ()

  let wake_waiters sh =
    if Atomic.get sh.n_parked > 0 then begin
      Mutex.lock sh.park_lock;
      Condition.signal sh.park_cond;
      Mutex.unlock sh.park_lock
    end

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
     between failed steal attempts, before parking, once per pending
     {!Future.force} (before its work-first pop, so a chain of inline
     joins still crosses a safe point at every node) and each trip
     around its help loop.  Every acquisition moves exactly one task,
     which the worker runs before its next safe point, so a worker
     suspended at a gate can never strand transferable work — everything
     else it owns sits in its deque, stealable by the workers that
     remain scheduled. *)
  let[@inline] checkpoint w =
    match w.pool.shared.gate with
    | None -> ()
    | Some g -> if not (g.poll w.id) then checkpoint_blocked w g

  let push_task w task =
    let d = w.pool.deques.(w.id) in
    D.push_bottom d task;
    let c = w.c in
    Counters.incr c Counters.pushes;
    Counters.note_max c Counters.deque_high_water (D.size d);
    emit w Abp_trace.Event.Spawn;
    wake_waiters w.pool.shared

  (* Observed size of the worker's own deque — the signal lazy-splitting
     loops ({!Par.parallel_for}) use to decide whether to split (deque
     empty: thieves would find nothing) or keep a chunk sequential. *)
  let local_size w = D.size w.pool.deques.(w.id)

  (* One steal attempt from a uniformly random other victim. *)
  let steal w =
    let pool = w.pool in
    let c = w.c in
    if pool.shared.size = 1 then None
    else begin
      let v = Abp_stats.Rng.int w.rng_state (pool.shared.size - 1) in
      let victim = if v >= w.id then v + 1 else v in
      Counters.incr c Counters.steal_attempts;
      match D.pop_top_detailed pool.deques.(victim) with
      | Spec.Got task ->
          Counters.incr c Counters.successful_steals;
          Counters.incr c Counters.stolen_tasks;
          Counters.note_victim c victim;
          emit w ~arg:victim Abp_trace.Event.Steal;
          Some task
      | Spec.Empty ->
          Counters.incr c Counters.steal_empties;
          emit w ~arg:victim Abp_trace.Event.Idle;
          None
      | Spec.Contended ->
          Counters.incr c Counters.cas_failures_pop_top;
          emit w ~arg:victim Abp_trace.Event.Idle;
          None
    end

  (* Past the steal: the first source in list order that yields. *)
  let poll_sources w =
    let sources = w.pool.shared.sources in
    let n = Array.length sources in
    let rec go i =
      if i >= n then None
      else
        let s = Array.unsafe_get sources i in
        match s.take () with
        | None ->
            s.note w.c false;
            go (i + 1)
        | Some _ as got ->
            s.note w.c true;
            (match s.event with Some k -> emit w k | None -> ());
            got
    in
    go 0

  let steal_then_sources w = match steal w with Some _ as got -> got | None -> poll_sources w

  let try_get_task w =
    let c = w.c in
    match D.pop_bottom_detailed w.pool.deques.(w.id) with
    | Spec.Got task ->
        Counters.incr c Counters.pops;
        emit w Abp_trace.Event.Execute;
        Some task
    | Spec.Contended ->
        (* Lost the deque's last task to a thief mid-popBottom. *)
        Counters.incr c Counters.cas_failures_pop_bottom;
        steal_then_sources w
    | Spec.Empty -> steal_then_sources w

  (* Work-first join ({!Future.force}): pop the own deque's bottom and
     report whether it is [task] (physical equality on the closure) —
     Manticore's [@pop-new-end].  A hit is an ordinary pop; the caller
     runs the task inline.  Anything else is pushed straight back and
     counts nothing, so [pushes = pops + stolen_tasks] still holds at
     quiescence; the re-push wakes parked thieves like any push, since
     one may have parked while the deque looked empty. *)
  let pop_own w task =
    let d = w.pool.deques.(w.id) in
    match D.pop_bottom_detailed d with
    | Spec.Got t when t == task ->
        Counters.incr w.c Counters.pops;
        emit w Abp_trace.Event.Execute;
        true
    | Spec.Got t ->
        D.push_bottom d t;
        wake_waiters w.pool.shared;
        false
    | Spec.Contended ->
        Counters.incr w.c Counters.cas_failures_pop_bottom;
        false
    | Spec.Empty -> false

  (* The parking check: some deque is non-empty, or some source is
     pending. *)
  let has_work t =
    Array.exists (fun d -> D.size d > 0) t.deques
    || Array.exists (fun s -> s.pending ()) t.shared.sources

  let park w =
    let sh = w.pool.shared in
    (* Never enter the park critical section with a closed gate: a gate
       wait under [park_lock] would deadlock every other parker and the
       wakers.  A thief woken from park while its gate is closed loops
       back through the worker loop and blocks at the checkpoint there,
       outside the lock. *)
    checkpoint w;
    Mutex.lock sh.park_lock;
    Atomic.incr sh.n_parked;
    (* Registered in [n_parked] before the final emptiness check, both
       under the lock: a racing push either observes [n_parked > 0] and
       takes the lock to signal — serializing with this critical
       section, so the signal lands after the wait begins — or completed
       its deque write before our registration, in which case [has_work]
       observes the task.  Either way no task is stranded. *)
    if (not (Atomic.get sh.shutdown_flag)) && not (has_work w.pool) then begin
      Counters.incr w.c Counters.parks;
      emit w Abp_trace.Event.Park;
      Condition.wait sh.park_cond sh.park_lock
    end;
    Atomic.decr sh.n_parked;
    Mutex.unlock sh.park_lock

  (* An empty-handed trip through the loop (Figure 3 line 15, extended):
     stage 1 is the paper's yield between failed steal attempts, a real
     OS yield ([Clock.yield_cpu], i.e. sched_yield) so that a peer
     preempted on this core runs now; stage 2 a bounded exponential
     cpu_relax backoff; stage 3 parks until the next push.  A spurious
     or stale wakeup only sends the thief around the loop again.  With
     [No_yield] (the E12/E15 ablation) thieves spin hot: no yield, no
     backoff, no parking.  Under [Yield_to_random]/[Yield_to_all] with
     a gate attached, the gate controller plays the kernel: stage 1 is
     a PAUSE plus a report to the controller, which registers the
     paper's kernel-directive obligation and later closes this
     worker's gate until the obligation discharges.  Without a gate a
     directed kind is exactly [Yield_local]. *)
  let backoff_spin_cap = 6  (* at most 2^6 = 64 relaxes per failed trip *)

  let idle w =
    let sh = w.pool.shared in
    match sh.yield_kind with
    | No_yield -> ()
    | kind ->
        let c = w.c in
        Counters.incr c Counters.yields;
        emit w Abp_trace.Event.Yield;
        (match sh.gate with
        | Some g when kind = Yield_to_random || kind = Yield_to_all ->
            Counters.incr c Counters.directed_yields;
            Domain.cpu_relax ();
            g.on_steal_fail w.id
        | _ -> Abp_trace.Clock.yield_cpu ());
        let k = w.failed_steals in
        w.failed_steals <- k + 1;
        if k >= sh.park_threshold then park w
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
    try Fiber.run w.pool.shared.fsched task
    with e ->
      (* A raising task must not kill its domain (the pool would wedge:
         the domain's deque keeps its tasks but nobody owns it).  Record
         the first failure for the run/shutdown boundary and keep
         scheduling. *)
      let bt = Printexc.get_raw_backtrace () in
      Counters.incr w.c Counters.task_exceptions;
      ignore (Atomic.compare_and_set w.pool.shared.pending_exn None (Some (e, bt)))

  let worker_loop w =
    let sh = w.pool.shared in
    while not (Atomic.get sh.shutdown_flag) do
      checkpoint w;
      match try_get_task w with Some task -> exec w task | None -> idle w
    done

  (* Scheduling loop for the [run] caller's domain: keep executing pool
     work until [stop ()].  Unlike [worker_loop] it never parks — the
     stop condition is flipped by the run body's continuation, which may
     complete on another worker (or be resumed by an external fulfil)
     with no push to wake a parked caller reliably; a plain relax keeps
     the exit prompt instead. *)
  let help_until w stop =
    while not (stop ()) do
      checkpoint w;
      match try_get_task w with
      | Some task -> exec w task
      | None -> Domain.cpu_relax ()
    done

  let deque_size t i = D.size t.deques.(i)

  (* External steal entry point: a worker of ANOTHER pool takes one
     task off [victim]'s deque top.  No counters are touched here — the
     caller is not one of this pool's workers and must not write their
     padded records; the thief's own pool attributes the transfer to its
     cross_* counters.  [steal_from] has already validated [victim]. *)
  let steal_external t ~victim =
    match D.pop_top_detailed t.deques.(victim) with
    | Spec.Got task -> Some task
    | Spec.Empty | Spec.Contended -> None
end

module Abp_impl = Impl (Abp_deque.Atomic_deque)
module Circular_impl = Impl (Abp_deque.Circular_deque)
module Locked_impl = Impl (Abp_deque.Locked_deque)

type t =
  | Abp_pool of Abp_impl.t
  | Circular_pool of Circular_impl.t
  | Locked_pool of Locked_impl.t

type worker =
  | Abp_worker of Abp_impl.worker
  | Circular_worker of Circular_impl.worker
  | Locked_worker of Locked_impl.worker

let shared_of = function
  | Abp_pool p -> p.Abp_impl.shared
  | Circular_pool p -> p.Circular_impl.shared
  | Locked_pool p -> p.Locked_impl.shared

(* Per-domain worker identity. *)
let context_key : worker option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () =
  match !(Domain.DLS.get context_key) with
  | Some w -> w
  | None -> failwith "Hood: not inside a pool worker (use Pool.run)"

let worker_shared = function
  | Abp_worker w -> w.Abp_impl.pool.Abp_impl.shared
  | Circular_worker w -> w.Circular_impl.pool.Circular_impl.shared
  | Locked_worker w -> w.Locked_impl.pool.Locked_impl.shared

let size t = (shared_of t).size
let yield_kind t = (shared_of t).yield_kind
let relax () = Domain.cpu_relax ()

(* Advisory observed size of worker [i]'s deque — the gate controller's
   view for adaptive adversaries (starve-workers and friends). *)
let deque_size t i =
  match t with
  | Abp_pool p -> Abp_impl.deque_size p i
  | Circular_pool p -> Circular_impl.deque_size p i
  | Locked_pool p -> Locked_impl.deque_size p i

(* Aggregates on demand from the per-worker records; exact once the
   workers have quiesced (after [run] returns / after [shutdown]),
   advisory while they run. *)
let total t id = Counters.get (Counters.sum (shared_of t).counters) id
let steal_attempts t = total t Counters.steal_attempts
let successful_steals t = total t Counters.successful_steals
let counters t = (shared_of t).counters
let parked_workers t = Atomic.get (shared_of t).n_parked

(* The per-task dispatch: a three-way branch to the functor instance
   for the pool's deque (inside it, each deque method is a closure
   call; see [Impl]). *)
let push_task w task =
  match w with
  | Abp_worker w -> Abp_impl.push_task w task
  | Circular_worker w -> Circular_impl.push_task w task
  | Locked_worker w -> Locked_impl.push_task w task

let try_get_task = function
  | Abp_worker w -> Abp_impl.try_get_task w
  | Circular_worker w -> Circular_impl.try_get_task w
  | Locked_worker w -> Locked_impl.try_get_task w

let pop_own w task =
  match w with
  | Abp_worker w -> Abp_impl.pop_own w task
  | Circular_worker w -> Circular_impl.pop_own w task
  | Locked_worker w -> Locked_impl.pop_own w task

let local_deque_size = function
  | Abp_worker w -> Abp_impl.local_size w
  | Circular_worker w -> Circular_impl.local_size w
  | Locked_worker w -> Locked_impl.local_size w

let checkpoint = function
  | Abp_worker w -> Abp_impl.checkpoint w
  | Circular_worker w -> Circular_impl.checkpoint w
  | Locked_worker w -> Locked_impl.checkpoint w

(* [Fiber.in_context ()] for the calling worker, without the DLS
   lookup. *)
let in_fiber = function
  | Abp_worker w -> Fiber.flag_set w.Abp_impl.in_fiber
  | Circular_worker w -> Fiber.flag_set w.Circular_impl.in_fiber
  | Locked_worker w -> Fiber.flag_set w.Locked_impl.in_fiber

let worker_counters = function
  | Abp_worker w -> w.Abp_impl.c
  | Circular_worker w -> w.Circular_impl.c
  | Locked_worker w -> w.Locked_impl.c

let worker_id = function
  | Abp_worker w -> w.Abp_impl.id
  | Circular_worker w -> w.Circular_impl.id
  | Locked_worker w -> w.Locked_impl.id

(* The calling domain's worker index within its own pool, or [None] off
   the pool — the shard selector for per-worker sharded telemetry
   ({!Abp_stats.Log_histogram.Sharded}): code that may run either on a
   worker or on an external domain picks its single-writer slot with
   it. *)
let self_id () =
  match !(Domain.DLS.get context_key) with Some w -> Some (worker_id w) | None -> None

let help_until w stop =
  match w with
  | Abp_worker w -> Abp_impl.help_until w stop
  | Circular_worker w -> Circular_impl.help_until w stop
  | Locked_worker w -> Locked_impl.help_until w stop

(* The pool's fiber scheduler, for layers that install their own
   handler on top (Serve wraps it to count suspended requests). *)
let fiber_sched t = (shared_of t).fsched

(* Continuations currently parked on promises under this pool's
   handler (advisory while workers run, exact at quiescence). *)
let suspended t = Atomic.get (shared_of t).n_suspended

(* Run one task under the pool's fiber handler, exactly as the worker
   loop would.  For helpers executing tasks outside [exec] (the
   [Future.force] out-of-context path): running a task RAW there would let
   the helped task's [Await] be captured by the enclosing task's
   handler, parking the helper itself. *)
let run_task w task = Fiber.run (worker_shared w).fsched task

let with_context w f =
  let slot = Domain.DLS.get context_key in
  let cslot = Domain.DLS.get exec_counters_key in
  let saved = !slot and csaved = !cslot in
  slot := Some w;
  cslot := Some (worker_counters w);
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
  | Some w -> (
      match (worker_shared w).trace with
      | Some s -> Sink.emit s ~worker:(worker_id w) ~arg Abp_trace.Event.Fiber
      | None -> ())
  | None -> ()

(* Hand an externally produced ready continuation to [sh]'s workers:
   enqueue on the resume inbox, then wake parked thieves.  The wake
   runs after the [resume_n] increment, so a thief registering in
   [n_parked] concurrently either observes [resume_n > 0] in its
   [has_work] recheck or serializes with this broadcast on [park_lock]
   — the same lost-wakeup argument as [push_task]/[wake_waiters]. *)
let resume_push sh k =
  Mutex.lock sh.resume_lock;
  Queue.push k sh.resume_q;
  Atomic.incr sh.resume_n;
  Mutex.unlock sh.resume_lock;
  if Atomic.get sh.n_parked > 0 then begin
    Mutex.lock sh.park_lock;
    Condition.broadcast sh.park_cond;
    Mutex.unlock sh.park_lock
  end

(* The pool's fiber scheduler — the [sched] record [Fiber.run] is
   parameterized by, installed around every task body by [exec].  The
   closures resolve the CURRENT worker dynamically (via DLS) rather
   than capturing one: a continuation resumes under its original
   handler on whichever worker runs it, so a captured worker would be
   the wrong one (and a cross-thread [push_bottom] is owner-only). *)
let make_fiber_sched sh =
  let schedule task =
    match !(Domain.DLS.get context_key) with
    (* Fulfilled from a worker (of any pool): the continuation becomes
       an ordinary task on the fulfiller's own deque — locality for
       same-pool wakes, natural cross-shard migration otherwise. *)
    | Some w -> push_task w task
    (* Fulfilled off-pool (a backend domain): hand it to the handler's
       home pool through the resume inbox. *)
    | None -> resume_push sh task
  in
  let on_suspend () =
    let n = 1 + Atomic.fetch_and_add sh.n_suspended 1 in
    (match !(Domain.DLS.get exec_counters_key) with
    | Some c ->
        Counters.incr c Counters.suspensions;
        Counters.note_max c Counters.suspended_peak n
    | None -> ());
    emit_fiber_event 0
  in
  let on_resume () =
    Atomic.decr sh.n_suspended;
    (match !(Domain.DLS.get exec_counters_key) with
    | Some c -> Counters.incr c Counters.resumes
    | None -> ());
    emit_fiber_event 1
  in
  { Fiber.schedule; on_suspend; on_resume }

(* The resume inbox as the first source: one continuation per poll (a
   resume is executed directly and never re-enters a deque), ahead of
   every caller source because a resume is the tail of an
   already-admitted task — finishing in-flight work takes priority over
   admitting more.  It feeds no counter. *)
let resume_source ~lock ~q ~n =
  {
    take =
      (fun () ->
        if Atomic.get n = 0 then None
        else begin
          Mutex.lock lock;
          let got =
            if Queue.is_empty q then None
            else begin
              Atomic.decr n;
              Some (Queue.pop q)
            end
          in
          Mutex.unlock lock;
          got
        end);
    pending = (fun () -> Atomic.get n > 0);
    note = (fun _ _ -> ());
    event = None;
  }

let create ?processes ?deque_capacity ?(yield_kind = Yield_local)
    ?(park_threshold = default_park_threshold) ?(deque_impl = Abp) ?trace ?(sources = [])
    ?(spawn_all = false) ?gate () =
  let processes = Option.value processes ~default:(Domain.recommended_domain_count ()) in
  if processes < 1 then invalid_arg "Pool.create: processes >= 1 required";
  if park_threshold < 0 then invalid_arg "Pool.create: park_threshold >= 0 required";
  (match trace with
  | Some s when Sink.workers s <> processes ->
      invalid_arg "Pool.create: trace sink must have one worker per process"
  | _ -> ());
  let resume_lock = Mutex.create () and resume_q = Queue.create () in
  let resume_n = Padding.atomic 0 in
  let shared =
    {
      shutdown_flag = Atomic.make false;
      run_lock = Mutex.create ();
      domains = [||];
      size = processes;
      yield_kind;
      park_threshold;
      gate;
      sources =
        Array.of_list (resume_source ~lock:resume_lock ~q:resume_q ~n:resume_n :: sources);
      all_spawned = spawn_all;
      counters =
        (match trace with
        | Some s -> Sink.per_worker s
        | None -> Array.init processes (fun _ -> Counters.create ()));
      trace;
      park_lock = Mutex.create ();
      park_cond = Condition.create ();
      n_parked = Padding.atomic 0;
      pending_exn = Atomic.make None;
      resume_lock;
      resume_q;
      resume_n;
      n_suspended = Padding.atomic 0;
      fsched = Fiber.inline_sched;
    }
  in
  shared.fsched <- make_fiber_sched shared;
  let spawn_workers enter =
    shared.domains <-
      (if spawn_all then Array.init processes (fun i -> Domain.spawn (fun () -> enter i))
       else Array.init (processes - 1) (fun i -> Domain.spawn (fun () -> enter (i + 1))))
  in
  match deque_impl with
  | Abp ->
      let it =
        {
          Abp_impl.shared;
          deques =
            Array.init processes (fun _ ->
                Abp_deque.Atomic_deque.create ?capacity:deque_capacity ());
        }
      in
      spawn_workers (fun id ->
          let w = Abp_impl.make_worker it id in
          with_context (Abp_worker w) (fun () -> Abp_impl.worker_loop w));
      Abp_pool it
  | Circular ->
      let it =
        {
          Circular_impl.shared;
          deques =
            Array.init processes (fun _ ->
                Abp_deque.Circular_deque.create ?capacity:deque_capacity ());
        }
      in
      spawn_workers (fun id ->
          let w = Circular_impl.make_worker it id in
          with_context (Circular_worker w) (fun () -> Circular_impl.worker_loop w));
      Circular_pool it
  | Locked ->
      let it =
        {
          Locked_impl.shared;
          deques =
            Array.init processes (fun _ ->
                Abp_deque.Locked_deque.create ?capacity:deque_capacity ());
        }
      in
      spawn_workers (fun id ->
          let w = Locked_impl.make_worker it id in
          with_context (Locked_worker w) (fun () -> Locked_impl.worker_loop w));
      Locked_pool it

let reraise_pending sh =
  match Atomic.exchange sh.pending_exn None with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let wake pool =
  let sh = shared_of pool in
  if Atomic.get sh.n_parked > 0 then begin
    Mutex.lock sh.park_lock;
    Condition.broadcast sh.park_cond;
    Mutex.unlock sh.park_lock
  end

let run pool f =
  let sh = shared_of pool in
  if Atomic.get sh.shutdown_flag then failwith "Pool.run: pool is shut down";
  if sh.all_spawned then failwith "Pool.run: pool runs all workers as domains (serve mode)";
  if not (Mutex.try_lock sh.run_lock) then failwith "Pool.run: already running";
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.run_lock)
    (fun () ->
      let w =
        match pool with
        | Abp_pool it -> Abp_worker (Abp_impl.make_worker it 0)
        | Circular_pool it -> Circular_worker (Circular_impl.make_worker it 0)
        | Locked_pool it -> Locked_worker (Locked_impl.make_worker it 0)
      in
      with_context w (fun () ->
          (* The body runs as a fiber on this domain (worker 0).  If it
             suspends on a promise, [Fiber.run] returns with the
             continuation parked and worker 0 drops into the scheduling
             loop below, keeping the pool moving until the body's
             continuation — possibly resumed on another worker —
             deposits the result. *)
          let result = Atomic.make None in
          Fiber.run sh.fsched (fun () ->
              let r =
                match f () with
                | v -> Ok v
                | exception e -> Error (e, Printexc.get_raw_backtrace ())
              in
              Atomic.set result (Some r);
              (* Worker 0 may be deep in backoff while the finishing
                 continuation ran elsewhere: make the exit prompt. *)
              wake pool);
          help_until w (fun () -> Atomic.get result <> None);
          match Atomic.get result with
          | Some (Ok v) ->
              reraise_pending sh;
              v
          | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | None -> assert false))

let steal_from pool ~victim =
  if victim < 0 || victim >= size pool then invalid_arg "Pool.steal_from: victim out of range";
  match pool with
  | Abp_pool p -> Abp_impl.steal_external p ~victim
  | Circular_pool p -> Circular_impl.steal_external p ~victim
  | Locked_pool p -> Locked_impl.steal_external p ~victim

let shutdown pool =
  let sh = shared_of pool in
  if not (Atomic.get sh.shutdown_flag) then begin
    Atomic.set sh.shutdown_flag true;
    (* Wake every parked thief so it can observe the flag and exit. *)
    Mutex.lock sh.park_lock;
    Condition.broadcast sh.park_cond;
    Mutex.unlock sh.park_lock;
    Array.iter Domain.join sh.domains;
    sh.domains <- [||];
    reraise_pending sh
  end
