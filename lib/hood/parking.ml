(* The park/wake protocol; parking.mli has the no-lost-wakeup argument.
   lib/mcheck generates a checked copy of this file with [Atomic],
   [Mutex] and [Condition] replaced by scheduling substitutes, so the
   code below uses only what those provide.  [waiting] sits on its own
   cache line: every push reads it. *)

type t = { waiting : int Atomic.t; lock : Mutex.t; cond : Condition.t }

let create () =
  { waiting = Abp_deque.Padding.atomic 0; lock = Mutex.create (); cond = Condition.create () }

let waiting t = Atomic.get t.waiting

let park ?on_wait t ~ready =
  Mutex.lock t.lock;
  Atomic.incr t.waiting;
  if not (ready ()) then begin
    Option.iter (fun f -> f ()) on_wait;
    Condition.wait t.cond t.lock
  end;
  Atomic.decr t.waiting;
  Mutex.unlock t.lock

let signal t =
  Mutex.lock t.lock;
  Condition.signal t.cond;
  Mutex.unlock t.lock

let broadcast t =
  Mutex.lock t.lock;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

(* Inlined into the wakers, so that a wake with nobody registered is
   the read and a branch, with no call. *)
let[@inline] wake_one t = if Atomic.get t.waiting > 0 then signal t
let[@inline] wake_all t = if Atomic.get t.waiting > 0 then broadcast t
