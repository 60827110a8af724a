type deque_impl = Abp | Circular | Locked
type t = Worker.pool
type yield_kind = Worker.yield_kind = No_yield | Yield_local | Yield_to_random | Yield_to_all

let yield_kind_name = function
  | No_yield -> "none"
  | Yield_local -> "local"
  | Yield_to_random -> "random"
  | Yield_to_all -> "all"

type gate_hook = Worker.gate_hook = {
  poll : int -> bool;
  wait : int -> float;
  on_steal_fail : int -> unit;
}

type source = Worker.source = {
  take : unit -> (unit -> unit) option;
  pending : unit -> bool;
  note : Abp_trace.Counters.t -> bool -> unit;
  event : Abp_trace.Event.kind option;
}

module Spec = Abp_deque.Spec
module Counters = Abp_trace.Counters
module Sink = Abp_trace.Sink
module Padding = Abp_deque.Padding
module Fiber = Abp_fiber.Fiber

let default_park_after = 5e-3

let size (p : t) = p.size
let yield_kind (p : t) = p.yield_kind

(* Advisory observed size of worker [i]'s deque — the gate controller's
   view for adaptive adversaries (starve-workers and friends). *)
let deque_size (p : t) i = p.deques.(i).size ()

(* Aggregates on demand from the per-worker records; exact once the
   workers have quiesced (after [run] returns / after [shutdown]),
   advisory while they run. *)
let total (p : t) id = Counters.get (Counters.sum p.counters) id
let steal_attempts p = total p Counters.steal_attempts
let successful_steals p = total p Counters.successful_steals
let counters (p : t) = p.counters
let parked_workers (p : t) = Parking.waiting p.parking

(* Continuations currently parked on promises under this pool's
   handler (advisory while workers run, exact at quiescence). *)
let suspended (p : t) = Atomic.get p.n_suspended
let wake = Worker.wake

(* The deque [deque_impl] names, as the operations the worker loop
   calls, each closed over one fresh deque. *)
let make_deque (module D : Spec.DETAILED) ?capacity () =
  let d = D.create ?capacity () in
  {
    Worker.push = D.push_bottom d;
    pop_bottom = (fun () -> D.pop_bottom_detailed d);
    pop_top = (fun () -> D.pop_top_detailed d);
    size = (fun () -> D.size d);
  }

let deque_module : deque_impl -> (module Spec.DETAILED) = function
  | Abp -> (module Abp_deque.Atomic_deque)
  | Circular -> (module Abp_deque.Circular_deque)
  | Locked -> (module Abp_deque.Locked_deque)

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
    ?(park_after = default_park_after) ?(deque_impl = Abp) ?trace ?(sources = [])
    ?(spawn_all = false) ?gate () =
  let processes = Option.value processes ~default:(Domain.recommended_domain_count ()) in
  if processes < 1 then invalid_arg "Pool.create: processes >= 1 required";
  (* Written so that NaN fails too; a float compare, not a generic one. *)
  if not (park_after >= 0.) then invalid_arg "Pool.create: park_after >= 0 required";
  (match trace with
  | Some s when Sink.workers s <> processes ->
      invalid_arg "Pool.create: trace sink must have one worker per process"
  | _ -> ());
  let resume_lock = Mutex.create () and resume_q = Queue.create () in
  let resume_n = Padding.atomic 0 in
  let dm = deque_module deque_impl in
  let p =
    {
      Worker.deques = Array.init processes (fun _ -> make_deque dm ?capacity:deque_capacity ());
      shutdown_flag = Atomic.make false;
      run_lock = Mutex.create ();
      domains = [||];
      size = processes;
      yield_kind;
      (* 10^9 s (about 32 years) or more means never; [Clock.of_s]
         would overflow on [infinity]. *)
      park_after_ns = (if park_after >= 1e9 then max_int else Abp_trace.Clock.of_s park_after);
      gate;
      sources =
        Array.of_list (resume_source ~lock:resume_lock ~q:resume_q ~n:resume_n :: sources);
      all_spawned = spawn_all;
      counters =
        (match trace with
        | Some s -> Sink.per_worker s
        | None -> Array.init processes (fun _ -> Counters.create ()));
      trace;
      parking = Parking.create ();
      pending_exn = Atomic.make None;
      resume_lock;
      resume_q;
      resume_n;
      n_suspended = Padding.atomic 0;
      fsched = Fiber.inline_sched;
    }
  in
  p.fsched <- Worker.make_fiber_sched p;
  let enter id =
    let w = Worker.make p id in
    Worker.with_context w (fun () -> Worker.worker_loop w)
  in
  p.domains <-
    (if spawn_all then Array.init processes (fun i -> Domain.spawn (fun () -> enter i))
     else Array.init (processes - 1) (fun i -> Domain.spawn (fun () -> enter (i + 1))));
  p

let reraise_pending (p : t) =
  match Atomic.exchange p.pending_exn None with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run (p : t) f =
  if Atomic.get p.shutdown_flag then failwith "Pool.run: pool is shut down";
  if p.all_spawned then failwith "Pool.run: pool runs all workers as domains (serve mode)";
  if not (Mutex.try_lock p.run_lock) then failwith "Pool.run: already running";
  Fun.protect
    ~finally:(fun () -> Mutex.unlock p.run_lock)
    (fun () ->
      let w = Worker.make p 0 in
      Worker.with_context w (fun () ->
          Worker.drain_own w;
          (* The body runs as a fiber on this domain (worker 0).  If it
             suspends on a promise, [Fiber.run] returns with the
             continuation parked and worker 0 drops into the scheduling
             loop below, keeping the pool moving until the body's
             continuation — possibly resumed on another worker —
             deposits the result. *)
          let result = Atomic.make None in
          Fiber.run p.fsched (fun () ->
              let r =
                match f () with
                | v -> Ok v
                | exception e -> Error (e, Printexc.get_raw_backtrace ())
              in
              Atomic.set result (Some r);
              (* Worker 0 may be deep in backoff while the finishing
                 continuation ran elsewhere: make the exit prompt. *)
              wake p);
          Worker.help_until w (fun () -> Atomic.get result <> None);
          match Atomic.get result with
          | Some (Ok v) ->
              reraise_pending p;
              v
          | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | None -> assert false))

(* External steal entry point: a worker of ANOTHER pool takes one task
   off [victim]'s deque top.  No counters are touched here — the caller
   is not one of this pool's workers and must not write their padded
   records; the thief's own pool attributes the transfer to its
   cross_* counters. *)
let steal_from (p : t) ~victim =
  if victim < 0 || victim >= p.size then invalid_arg "Pool.steal_from: victim out of range";
  match p.deques.(victim).pop_top () with
  | Spec.Got task -> Some task
  | Spec.Empty | Spec.Contended -> None

(* Worker 0's deque has no owner between runs: a task the last [run]
   spawned and never forced would stay there when the peers exit.  Run
   it empty on the calling domain as worker 0, before the flag goes up
   so that the peers can still steal from and help any task it runs;
   a raising task is recorded and re-raised below.  Skipped while a
   [run] holds worker 0 (its caller owns the deque) and on a
   [spawn_all] pool (worker 0 is a domain of its own). *)
let drain_caller_deque (p : t) =
  if (not p.all_spawned) && Mutex.try_lock p.run_lock then
    Fun.protect
      ~finally:(fun () -> Mutex.unlock p.run_lock)
      (fun () ->
        let w = Worker.make p 0 in
        Worker.with_context w (fun () -> Worker.drain_own w))

let shutdown (p : t) =
  if not (Atomic.get p.shutdown_flag) then begin
    drain_caller_deque p;
    Atomic.set p.shutdown_flag true;
    (* Wake every parked thief so it can observe the flag and exit. *)
    wake p;
    Array.iter Domain.join p.domains;
    p.domains <- [||];
    reraise_pending p
  end
