(* A simulated downstream service: [call] enqueues a (due-time, fulfil)
   pair and returns the promise immediately; dedicated backend domains
   pop the FIFO, sleep until due, and fulfil.  Fulfilment therefore
   always happens on a NON-pool domain — exactly the external-fulfiller
   path of the fiber runtime (the resume is routed through the home
   pool's resume inbox and must wake parked thieves), which is the path
   worth stressing.  Delays are near-uniform per backend, so FIFO order
   approximates earliest-due order; a late entry only over-delays, never
   drops. *)

module Fiber = Abp_fiber.Fiber
module Clock = Abp_trace.Clock
module Log_histogram = Abp_stats.Log_histogram

type t = {
  lock : Mutex.t;
  cond : Condition.t;
  (* due times are absolute monotonic nanoseconds ({!Abp_trace.Clock}):
     immune to wall-clock steps, and integer comparisons all the way. *)
  q : (int * (unit -> unit)) Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  calls : int Atomic.t;
  (* Fulfil time minus due time, in ns; shard i is written only by
     backend domain i. *)
  late : Log_histogram.Sharded.t;
}

let worker_loop b i =
  let rec loop () =
    Mutex.lock b.lock;
    while Queue.is_empty b.q && not b.stopped do
      Condition.wait b.cond b.lock
    done;
    if Queue.is_empty b.q then begin
      (* stopped and drained *)
      Mutex.unlock b.lock
    end
    else begin
      let due, fulfil = Queue.pop b.q in
      Mutex.unlock b.lock;
      Clock.sleep_until due;
      Log_histogram.Sharded.record b.late ~shard:i (Clock.now () - due);
      fulfil ();
      loop ()
    end
  in
  loop ()

let create ?(workers = 1) () =
  if workers < 1 then invalid_arg "Backend.create: workers >= 1 required";
  let b =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      q = Queue.create ();
      stopped = false;
      workers = [];
      calls = Atomic.make 0;
      late = Log_histogram.Sharded.create ~shards:workers ();
    }
  in
  b.workers <- List.init workers (fun i -> Domain.spawn (fun () -> worker_loop b i));
  b

let call b ~delay v =
  let p = Fiber.Promise.create () in
  let due = Clock.now () + Clock.of_s delay in
  Mutex.lock b.lock;
  if b.stopped then begin
    Mutex.unlock b.lock;
    invalid_arg "Backend.call: backend stopped"
  end;
  Queue.push (due, fun () -> Fiber.Promise.fulfil p v) b.q;
  Mutex.unlock b.lock;
  Atomic.incr b.calls;
  Condition.signal b.cond;
  p

let calls b = Atomic.get b.calls
let lateness b = Log_histogram.Sharded.merged b.late

let stop b =
  Mutex.lock b.lock;
  b.stopped <- true;
  Condition.broadcast b.cond;
  Mutex.unlock b.lock;
  List.iter Domain.join b.workers;
  b.workers <- []
