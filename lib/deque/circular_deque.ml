(* Chase-Lev dynamic circular deque on OCaml 5 atomics.

   [top] and [bottom] are monotone absolute indices ([top] only ever
   increases, so a thief's CAS cannot be fooled by recycling — no tag).
   The buffer is published through an Atomic so thieves always read a
   coherent (array, mask) pair; growth copies the live logical range
   [top, bottom) into a doubled array at the same logical indices, which
   keeps a concurrent thief's pre-growth read of slot [top] valid: its
   CAS on [top] validates that the element was not already taken. *)

type 'a buffer = { mask : int; seg : 'a option array }

type 'a t = {
  top : int Atomic.t;
  bottom : int Atomic.t;
  active : 'a buffer Atomic.t;
  grow_count : int Atomic.t;
  shrink_count : int Atomic.t;
  (* Reclamation floor: the buffer never shrinks below its creation
     capacity, so a deque sized for its steady state pays no repeated
     grow/shrink churn around that size. *)
  initial_cap : int;
}

let make_buffer cap = { mask = cap - 1; seg = Array.make cap None }

(* The three hot atomics live on distinct cache lines: [top] is
   thief-CASed, [bottom] is owner-stored, and [active] is read by
   everyone but written only on (rare) growth or shrinkage. *)
let create ?(capacity = 16) () =
  if capacity < 2 then invalid_arg "Circular_deque.create: capacity >= 2 required";
  (* Round up to a power of two. *)
  let cap = ref 2 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  {
    top = Padding.atomic 0;
    bottom = Padding.atomic 0;
    active = Padding.atomic (make_buffer !cap);
    grow_count = Atomic.make 0;
    shrink_count = Atomic.make 0;
    initial_cap = !cap;
  }

let put buf i x = buf.seg.(i land buf.mask) <- x
let get buf i = buf.seg.(i land buf.mask)

let grow t ~bottom ~top =
  let old_buf = Atomic.get t.active in
  let bigger = make_buffer (2 * (old_buf.mask + 1)) in
  for i = top to bottom - 1 do
    put bigger i (get old_buf i)
  done;
  Atomic.set t.active bigger;
  Atomic.incr t.grow_count;
  bigger

(* Chase-Lev Section 4 reclamation, owner-only like [grow]: copy the
   live range [top, bottom) into a half-size buffer and publish it.
   Safety mirrors the growth argument exactly — the old buffer is never
   written again after the publish, so a thief that read the old
   (array, mask) pair still sees the correct element at the logical
   index it validated with its CAS on [top]; a stale [top] passed in by
   the caller only makes the copied range a superset of the live one
   (indices below the real [top] are never read again).  Both
   [bottom - top < cap/4 < cap/2] and monotone [top] guarantee the live
   range fits the smaller buffer. *)
let shrink t ~bottom ~top =
  let old_buf = Atomic.get t.active in
  let smaller = make_buffer ((old_buf.mask + 1) / 2) in
  for i = top to bottom - 1 do
    put smaller i (get old_buf i)
  done;
  Atomic.set t.active smaller;
  Atomic.incr t.shrink_count;
  smaller

let[@inline] shrinkable t buf ~bottom ~top =
  let cap = buf.mask + 1 in
  cap > t.initial_cap && bottom - top < cap / 4

let maybe_shrink t ~bottom ~top =
  let buf = Atomic.get t.active in
  if shrinkable t buf ~bottom ~top then ignore (shrink t ~bottom ~top)

let push_bottom t x =
  let b = Atomic.get t.bottom in
  let tp = Atomic.get t.top in
  let buf = Atomic.get t.active in
  let buf =
    if b - tp > buf.mask then grow t ~bottom:b ~top:tp
    else if shrinkable t buf ~bottom:b ~top:tp then shrink t ~bottom:b ~top:tp
    else buf
  in
  put buf b (Some x);
  Atomic.set t.bottom (b + 1)

let got = function Some x -> Spec.Got x | None -> Spec.Empty

let pop_bottom_detailed t =
  let b = Atomic.get t.bottom - 1 in
  Atomic.set t.bottom b;
  let tp = Atomic.get t.top in
  if b < tp then begin
    (* Deque was empty; restore the canonical empty state. *)
    Atomic.set t.bottom tp;
    Spec.Empty
  end
  else begin
    let buf = Atomic.get t.active in
    let x = get buf b in
    if b > tp then begin
      put buf b None;
      (* Reclaim on the pop side too, so a deque that drains after a
         growth spike gives the memory back without waiting for the
         next push.  [tp] may be stale — see [shrink]. *)
      maybe_shrink t ~bottom:b ~top:tp;
      got x
    end
    else begin
      (* Last element: race the thieves for it with a CAS on top. *)
      let won = Atomic.compare_and_set t.top tp (tp + 1) in
      Atomic.set t.bottom (tp + 1);
      if won then begin
        put buf b None;
        got x
      end
      else Spec.Contended
    end
  end

(* Direct option variant: no intermediate [Spec.detailed] block on the
   uninstrumented path. *)
let pop_bottom t =
  let b = Atomic.get t.bottom - 1 in
  Atomic.set t.bottom b;
  let tp = Atomic.get t.top in
  if b < tp then begin
    Atomic.set t.bottom tp;
    None
  end
  else begin
    let buf = Atomic.get t.active in
    let x = get buf b in
    if b > tp then begin
      put buf b None;
      maybe_shrink t ~bottom:b ~top:tp;
      x
    end
    else begin
      let won = Atomic.compare_and_set t.top tp (tp + 1) in
      Atomic.set t.bottom (tp + 1);
      if won then begin
        put buf b None;
        x
      end
      else None
    end
  end

let pop_top_detailed t =
  let tp = Atomic.get t.top in
  let b = Atomic.get t.bottom in
  if b <= tp then Spec.Empty
  else begin
    let buf = Atomic.get t.active in
    let x = get buf tp in
    if Atomic.compare_and_set t.top tp (tp + 1) then got x else Spec.Contended
  end

let pop_top t =
  let tp = Atomic.get t.top in
  let b = Atomic.get t.bottom in
  if b <= tp then None
  else begin
    let buf = Atomic.get t.active in
    let x = get buf tp in
    if Atomic.compare_and_set t.top tp (tp + 1) then x else None
  end

(* Batched steal: transfer up to [batch_quota] items with one deque
   traversal — one victim selection, one wakeup, one scheduling
   round-trip for the whole batch.

   Why this is a CAS *per item* and not one CAS advancing [top] by [k]:
   the owner's [pop_bottom] fast path takes slot [b-1] with no CAS
   whenever it observes [b-1 > top].  A thief that claims the range
   [t, t+k) with a single CAS [t -> t+k] can interleave with an owner
   that popped down into that range *before* the CAS landed: the owner
   reads [top = t], takes slot [t+1] without synchronizing, and the
   thief's CAS still succeeds ([top] was never touched) — slot [t+1] is
   consumed twice.  The single-item steal is immune because the claimed
   slot equals the CAS-validated index itself: a conflicting owner take
   of slot [t] requires its fresh [top] read to be [< t], which
   contradicts the monotonicity of [top] given that the thief read
   [bottom > t] before the owner's store of [bottom = t].  (This is why
   owner-LIFO Chase-Lev stealers — e.g. crossbeam-deque's Lifo flavor —
   also steal batches one CAS at a time; single-CAS range claims are
   only sound when the owner consumes from the same end with a CAS, as
   in Go's runqueue.)  Each iteration therefore re-reads [bottom] and
   claims exactly one validated slot; the items after the first are
   uncontended in the common case, so the batch still costs far less
   than [k] independent steals. *)
let pop_top_n t n =
  if n < 1 then invalid_arg "Circular_deque.pop_top_n: n >= 1 required";
  let tp0 = Atomic.get t.top in
  let b0 = Atomic.get t.bottom in
  let k = Spec.batch_quota ~size:(b0 - tp0) n in
  if k = 0 then []
  else
    let rec claim acc got tp =
      if got >= k then List.rev acc
      else
        let b = Atomic.get t.bottom in
        if b <= tp then List.rev acc
        else begin
          let buf = Atomic.get t.active in
          let x = get buf tp in
          if Atomic.compare_and_set t.top tp (tp + 1) then
            match x with
            | Some v -> claim (v :: acc) (got + 1) (tp + 1)
            | None -> List.rev acc
          else List.rev acc (* lost [top] to a racing thief: stop *)
        end
    in
    claim [] 0 tp0

let size t =
  let b = Atomic.get t.bottom and tp = Atomic.get t.top in
  Int.max 0 (b - tp)

let is_empty t = size t = 0
let capacity t = (Atomic.get t.active).mask + 1
let grows t = Atomic.get t.grow_count
let shrinks t = Atomic.get t.shrink_count
let initial_capacity t = t.initial_cap
