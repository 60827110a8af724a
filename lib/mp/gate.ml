module Pool = Abp_hood.Pool
module Parking = Abp_hood.Parking
module Clock = Abp_trace.Clock

(* One cell per worker.  [open_] is the fast-path flag the worker polls
   at every safe point; a worker that finds it closed parks on
   [parking] until an open wakes it.  Stats are atomics because the
   blocked worker writes them while the controller (or a test) reads
   them. *)
type cell = {
  open_ : bool Atomic.t;
  parking : Parking.t;
  suspends : int Atomic.t;
  wait_ns : int Atomic.t;
}

type t = { cells : cell array; steal_fail : (int -> unit) Atomic.t }

let make_cell () =
  Abp_deque.Padding.copy_as_padded
    {
      open_ = Atomic.make true;
      parking = Parking.create ();
      suspends = Abp_deque.Padding.atomic 0;
      wait_ns = Abp_deque.Padding.atomic 0;
    }

let create ~num_workers =
  if num_workers < 1 then invalid_arg "Gate.create: num_workers >= 1 required";
  { cells = Array.init num_workers (fun _ -> make_cell ()); steal_fail = Atomic.make ignore }

let num_workers t = Array.length t.cells
let is_open t i = Atomic.get t.cells.(i).open_
let set_steal_fail t f = Atomic.set t.steal_fail f

let open_one c =
  if not (Atomic.get c.open_) then begin
    Atomic.set c.open_ true;
    Parking.wake_all c.parking
  end

(* A close needs no lock: a worker that read the gate open just runs on
   to its next safe point. *)
let close_one c = if Atomic.get c.open_ then Atomic.set c.open_ false

let set t granted =
  if Array.length granted <> Array.length t.cells then
    invalid_arg "Gate.set: wrong set length";
  Array.iteri (fun i g -> if g then open_one t.cells.(i) else close_one t.cells.(i)) granted

let open_all t = Array.iter open_one t.cells

let wait t i =
  let c = t.cells.(i) in
  let t0 = Clock.now () in
  Atomic.incr c.suspends;
  let ready () = Atomic.get c.open_ in
  while not (ready ()) do
    Parking.park c.parking ~ready
  done;
  let ns = Clock.now () - t0 in
  ignore (Atomic.fetch_and_add c.wait_ns ns);
  Clock.to_s ns

let hook t =
  {
    Pool.poll = (fun i -> Atomic.get t.cells.(i).open_);
    wait = (fun i -> wait t i);
    on_steal_fail = (fun i -> (Atomic.get t.steal_fail) i);
  }

let suspends t i = Atomic.get t.cells.(i).suspends
let suspended_seconds t i = float_of_int (Atomic.get t.cells.(i).wait_ns) /. 1e9

let total_suspended_seconds t =
  Array.fold_left (fun acc c -> acc +. (float_of_int (Atomic.get c.wait_ns) /. 1e9)) 0.0 t.cells
