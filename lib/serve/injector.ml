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
   [slots]); padding its atomic to a cache line would cost 21.

   The slots live in segments of [seg_size] (or [capacity], if smaller),
   allocated on first use.  [create] allocates only the directory, one
   atomic cell per segment, all [unset].  The producer whose ticket
   first reaches a segment builds it and installs it with one CAS on its
   cell, a publication point besides the slots' own: a producer that
   loses the CAS uses the winner's segment, and every operation reads
   the cell before it touches a slot.  A segment's sequence numbers
   start at their lap-0 tickets [base + j]; that is right because the
   install precedes the claim of any of its tickets, and tickets advance
   one by one, so ticket [base], in lap 0, is the first to reach it.  A
   consumer that finds the cell [unset] holds a ticket whose producer
   has not published yet: the queue is empty, as when it reads a
   sequence number a lap behind.

   [seg_size] is 256 so that a segment's arrays and, up to a capacity of
   65 536, the directory fit the minor heap (at most [Max_young_wosize]
   = 256 words each).  A larger block is allocated in the major heap, and
   [Array.init] with a young first element then forces a minor
   collection, which stops every domain. *)
type 'a segment = {
  seq : int Atomic.t array;
  slots : 'a option array;
}

type 'a t = {
  mask : int;
  dir : 'a segment Atomic.t array;  (* segment [i lsr seg_bits] *)
  tail : int Atomic.t;  (* producers *)
  head : int Atomic.t;  (* consumers *)
}

let seg_bits = 8
let seg_size = 1 lsl seg_bits
let unset = { seq = [||]; slots = [||] }

let next_pow2 n =
  let rec go k = if k >= n then k else go (k * 2) in
  go 1

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Injector.create: capacity >= 1 required";
  let cap = Int.max 2 (next_pow2 capacity) in
  {
    mask = cap - 1;
    dir = Array.init (Int.max 1 (cap lsr seg_bits)) (fun _ -> Atomic.make unset);
    tail = Padding.atomic 0;
    head = Padding.atomic 0;
  }

let capacity t = t.mask + 1

(* Build segment [i lsr seg_bits] at its lap-0 sequence numbers and
   install it, unless another producer got there first. *)
let install t cell i =
  let base = i land lnot (seg_size - 1) in
  let n = Int.min seg_size (t.mask + 1) in
  let s = { seq = Array.init n (fun j -> Atomic.make (base + j)); slots = Array.make n None } in
  if Atomic.compare_and_set cell unset s then s else Atomic.get cell

(* The segment holding index [i].  The hot paths index without bounds
   checks, which cost about as much as the directory load itself: [i <
   capacity], so [i lsr seg_bits] is below the directory's length, and
   [i land (seg_size - 1)] below every installed segment's (with fewer
   than [seg_size] slots, every index falls in segment 0 at offset
   [i]).  Only [unset] has shorter arrays, and no slot of it is read. *)
let[@inline] segment t i =
  let cell = Array.unsafe_get t.dir (i lsr seg_bits) in
  let s = Atomic.get cell in
  if s != unset then s else install t cell i

(* The slot payload is a plain (non-atomic) array cell: the store
   happens-before the release store of the slot's sequence number, and
   the consumer's read happens-after its acquire load of that number, so
   the OCaml memory model orders payload accesses through the atomic. *)
let rec try_push t v =
  let tail = Atomic.get t.tail in
  let i = tail land t.mask in
  let s = segment t i in
  let j = i land (seg_size - 1) in
  let seq = Array.unsafe_get s.seq j in
  let d = Atomic.get seq - tail in
  if d = 0 then
    if Atomic.compare_and_set t.tail tail (tail + 1) then begin
      Array.unsafe_set s.slots j (Some v);
      Atomic.set seq (tail + 1);
      true
    end
    else try_push t v (* lost the slot to another producer *)
  else if d < 0 then false (* the slot is still a full lap behind: queue full *)
  else try_push t v (* a racing producer advanced tail; reload *)

let rec try_pop t =
  let head = Atomic.get t.head in
  let i = head land t.mask in
  let s = Atomic.get (Array.unsafe_get t.dir (i lsr seg_bits)) in
  if s == unset then None (* the ticket's producer has not published *)
  else
    let j = i land (seg_size - 1) in
    let seq = Array.unsafe_get s.seq j in
    let d = Atomic.get seq - (head + 1) in
    if d = 0 then
      if Atomic.compare_and_set t.head head (head + 1) then begin
        let v = Array.unsafe_get s.slots j in
        Array.unsafe_set s.slots j None;
        (* Hand the slot to the producer one lap ahead. *)
        Atomic.set seq (head + t.mask + 1);
        v
      end
      else try_pop t
    else if d < 0 then None (* slot not yet published: queue empty *)
    else try_pop t

let size t =
  let n = Atomic.get t.tail - Atomic.get t.head in
  if n < 0 then 0 else if n > t.mask + 1 then t.mask + 1 else n

let is_empty t = size t = 0
