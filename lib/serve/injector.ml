module Padding = Abp_deque.Padding

(* Vyukov's bounded MPMC array queue.  Each slot carries a sequence
   number encoding its lifecycle: [seq = ticket] means free for the
   producer holding [ticket]; [seq = ticket + 1] means filled, ready for
   the consumer holding [ticket]; after consumption the slot advances to
   [ticket + capacity] for the next lap.  The [head]/[tail] cursors are
   monotonically increasing tickets (never wrapped; at any realistic
   submission rate a 63-bit int outlives the process), each on its own
   cache line so producers and consumers do not false-share: they are
   the only words every operation contends on, like the paper's
   [age]/[bot].  The per-slot sequence numbers are plain atomics, not
   padded: slots are touched in cursor order, so a domain working
   through consecutive tickets gains from neighbouring slots sharing a
   line, and producers and consumers meet on one only when the queue is
   nearly empty, where they already meet on the cursors.  Unpadded, a
   slot costs 4 words (a 2-word atomic and its cells in [seq] and
   [slots]); padding its atomic to a cache line would cost 21. *)
type 'a t = {
  mask : int;
  seq : int Atomic.t array;
  slots : 'a option array;
  tail : int Atomic.t;  (* producers *)
  head : int Atomic.t;  (* consumers *)
}

let next_pow2 n =
  let rec go k = if k >= n then k else go (k * 2) in
  go 1

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Injector.create: capacity >= 1 required";
  let cap = max 2 (next_pow2 capacity) in
  {
    mask = cap - 1;
    seq = Array.init cap Atomic.make;
    slots = Array.make cap None;
    tail = Padding.atomic 0;
    head = Padding.atomic 0;
  }

let capacity t = t.mask + 1

(* The slot payload is a plain (non-atomic) array cell: the store
   happens-before the release store of the slot's sequence number, and
   the consumer's read happens-after its acquire load of that number, so
   the OCaml memory model orders payload accesses through the atomic. *)
let rec try_push t v =
  let tail = Atomic.get t.tail in
  let i = tail land t.mask in
  let d = Atomic.get t.seq.(i) - tail in
  if d = 0 then
    if Atomic.compare_and_set t.tail tail (tail + 1) then begin
      t.slots.(i) <- Some v;
      Atomic.set t.seq.(i) (tail + 1);
      true
    end
    else try_push t v (* lost the slot to another producer *)
  else if d < 0 then false (* the slot is still a full lap behind: queue full *)
  else try_push t v (* a racing producer advanced tail; reload *)

let rec try_pop t =
  let head = Atomic.get t.head in
  let i = head land t.mask in
  let d = Atomic.get t.seq.(i) - (head + 1) in
  if d = 0 then
    if Atomic.compare_and_set t.head head (head + 1) then begin
      let v = t.slots.(i) in
      t.slots.(i) <- None;
      (* Hand the slot to the producer one lap ahead. *)
      Atomic.set t.seq.(i) (head + t.mask + 1);
      v
    end
    else try_pop t
  else if d < 0 then None (* slot not yet published: queue empty *)
  else try_pop t

let size t =
  let n = Atomic.get t.tail - Atomic.get t.head in
  if n < 0 then 0 else if n > t.mask + 1 then t.mask + 1 else n

let is_empty t = size t = 0
