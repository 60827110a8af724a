type 'a t = { mutable v : 'a; mutable vid : int; lid : int; mutable touched : bool }
type cell = Cell : 'a t -> cell
type _ Effect.t += Yield : (unit -> bool) -> unit Effect.t

let running = ref false
let hist = ref 0
let cells = ref []
let touched = Hashtbl.create 64
let table = Hashtbl.create 4096

let intern h event =
  let key = (h, event) in
  match Hashtbl.find_opt table key with
  | Some id -> id
  | None ->
      let id = Hashtbl.length table + 1 in
      Hashtbl.add table key id;
      id

let reset () =
  cells := [];
  Hashtbl.reset touched;
  hist := 0

let memory () = List.sort compare (List.map (fun (Cell c) -> (c.lid, c.vid)) !cells)

let make v =
  hist := intern !hist (0, 0, 0);
  let c = { v; vid = !hist; lid = !hist; touched = false } in
  cells := Cell c :: !cells;
  c

(* Same-role threads share a history, so two of them can make a cell at
   the same one, and both cells get that location.  The ids stay exact
   while at most one of such cells is accessed; a second one fails the
   thread, which the explorer reports. *)
let first_access c =
  c.touched <- true;
  if Hashtbl.mem touched c.lid then
    failwith "Sched_atomic: two cells made at one history are both accessed";
  Hashtbl.add touched c.lid ()

(* Yield, then record what the access saw: its kind, the location and
   the content's id.  That also fixes a [compare_and_set]'s outcome, as
   the expected value is the thread's own.  A write names the new
   content by the history that includes it. *)
let always () = true

let access ?(enabled = always) c kind =
  if !running then Effect.perform (Yield enabled)
  else if not (enabled ()) then failwith "Sched_atomic: a thread would block outside a run";
  if not c.touched then first_access c;
  hist := intern !hist (kind, c.lid, c.vid)

let write c v =
  c.v <- v;
  c.vid <- !hist

let get c =
  access c 1;
  c.v

let peek c = c.v

let set c v =
  access c 2;
  write c v

let exchange c v =
  access c 3;
  let old = c.v in
  write c v;
  old

let compare_and_set c seen v =
  access c 4;
  c.v == seen && (write c v; true)

let fetch_and_add c n =
  access c 5;
  let old = c.v in
  write c (old + n);
  old

let incr c = ignore (fetch_and_add c 1)
let decr c = ignore (fetch_and_add c (-1))

let update_when c ready f =
  access ~enabled:(fun () -> ready c.v) c 6;
  let old = c.v in
  write c (f old);
  old
