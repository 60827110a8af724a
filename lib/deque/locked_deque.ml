(* A growable circular buffer under one mutex: top at [head], bottom at
   [head + count - 1] (mod capacity).  Slots hold options so that no
   placeholder element is needed and popped slots do not retain values. *)

type 'a t = {
  lock : Mutex.t;
  mutable items : 'a option array;
  mutable head : int;
  mutable count : int;
}

let default_capacity = 64

(* The record's own mutable fields ([items]/[head]/[count]) are the hot
   state here, so the record itself is padded to a cache line: per-worker
   deques allocated back to back must not false-share. *)
let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Locked_deque.create: capacity >= 1 required";
  Padding.copy_as_padded
    { lock = Mutex.create (); items = Array.make capacity None; head = 0; count = 0 }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let ensure_capacity t =
  let cap = Array.length t.items in
  if t.count = cap then begin
    let bigger = Array.make (cap * 2) None in
    for i = 0 to t.count - 1 do
      bigger.(i) <- t.items.((t.head + i) mod cap)
    done;
    t.items <- bigger;
    t.head <- 0
  end

let push_bottom t x =
  with_lock t (fun () ->
      ensure_capacity t;
      let cap = Array.length t.items in
      t.items.((t.head + t.count) mod cap) <- Some x;
      t.count <- t.count + 1)

let pop_bottom t =
  with_lock t (fun () ->
      if t.count = 0 then None
      else begin
        t.count <- t.count - 1;
        let cap = Array.length t.items in
        let i = (t.head + t.count) mod cap in
        let x = t.items.(i) in
        t.items.(i) <- None;
        x
      end)

let pop_top t =
  with_lock t (fun () ->
      if t.count = 0 then None
      else begin
        let x = t.items.(t.head) in
        t.items.(t.head) <- None;
        t.head <- (t.head + 1) mod Array.length t.items;
        t.count <- t.count - 1;
        x
      end)

let size t = with_lock t (fun () -> t.count)
let is_empty t = size t = 0

(* {!Spec.DETAILED} view: a mutex-protected deque has no CAS, so every
   NIL is a genuine [Empty] — failures never register as [Contended]
   (the instrumented pool's CAS-failure counters stay zero, as the
   telemetry layer expects of this baseline). *)
let of_option = function Some x -> Spec.Got x | None -> Spec.Empty
let pop_bottom_detailed t = of_option (pop_bottom t)
let pop_top_detailed t = of_option (pop_top t)
