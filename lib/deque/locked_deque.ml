(* A growable circular buffer under one mutex: top at [head], bottom at
   [head + count - 1] (mod capacity).  Free slots hold [empty], so that
   popped slots do not retain values.  A mutex-protected deque has no
   CAS, so no pop returns [lost]: the instrumented pool's CAS-failure
   counters stay zero, as the telemetry layer expects of this
   baseline. *)

module Core = struct
  type 'e t = {
    lock : Mutex.t;
    mutable items : 'e array;
    mutable head : int;
    mutable count : int;
    empty : 'e;
  }

  (* The record's own mutable fields ([items]/[head]/[count]) are the hot
     state here, so the record itself is padded to a cache line:
     per-worker deques allocated back to back must not false-share. *)
  let create ?(capacity = 64) ~empty ~lost:_ () =
    if capacity < 1 then invalid_arg "Locked_deque.create: capacity >= 1 required";
    Padding.copy_as_padded
      { lock = Mutex.create (); items = Array.make capacity empty; head = 0; count = 0; empty }

  let with_lock t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  let ensure_capacity t =
    let cap = Array.length t.items in
    if t.count = cap then begin
      let bigger = Array.make (cap * 2) t.empty in
      for i = 0 to t.count - 1 do
        bigger.(i) <- t.items.((t.head + i) mod cap)
      done;
      t.items <- bigger;
      t.head <- 0
    end

  let push t x =
    with_lock t (fun () ->
        ensure_capacity t;
        let cap = Array.length t.items in
        t.items.((t.head + t.count) mod cap) <- x;
        t.count <- t.count + 1;
        t.count)

  let pop_bottom t =
    with_lock t (fun () ->
        if t.count = 0 then t.empty
        else begin
          t.count <- t.count - 1;
          let cap = Array.length t.items in
          let i = (t.head + t.count) mod cap in
          let x = t.items.(i) in
          t.items.(i) <- t.empty;
          x
        end)

  let pop_top t =
    with_lock t (fun () ->
        if t.count = 0 then t.empty
        else begin
          let x = t.items.(t.head) in
          t.items.(t.head) <- t.empty;
          t.head <- (t.head + 1) mod Array.length t.items;
          t.count <- t.count - 1;
          x
        end)

  let size t = with_lock t (fun () -> t.count)
end

include Spec.Of_core (Core)
