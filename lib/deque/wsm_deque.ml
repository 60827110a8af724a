(* Fence-free work-stealing deque with multiplicity, after Castañeda &
   Piña, "Fully Read/Write Fence-Free Work-Stealing with Multiplicity"
   (arXiv:2008.04424).  The steal path performs only atomic loads and
   one blind atomic store — no CAS, no fetch-and-add, no read-modify-
   write of any kind — at the price of a deliberately *relaxed*
   extraction guarantee: a task may occasionally be returned to more
   than one caller (multiplicity), but no pushed task is ever lost.

   Structure (our realization of the read/write-only idea):

   - [priv]: an owner-private growable ring.  push_bottom/pop_bottom
     touch only plain (non-atomic) fields here — the owner's fast path
     is not merely fence-free, it is synchronization-free.

   - The publication board: a small ring of slots indexed by two
     monotone cursors, [pub] (next index to publish, written only by
     the owner) and [con] (consume cursor, advanced by *blind*
     [Atomic.set] from thieves and from the owner's reclaim path).
     Whenever the owner observes the board drained ([con >= pub]) and
     holds private work, it moves its *oldest* private task into slot
     [pub land mask] and then publishes by storing [pub + 1] — so the
     board holds at most one pending task at a time, always the
     globally oldest, and every board index is written exactly once
     while it can be pending.

   A thief reads [con], reads [pub], and if [con < pub] reads the slot
   and blindly stores [con + 1].  Races lose nothing:

   - Two thieves reading the same [con] both return the same task and
     both store the same [con + 1]: a duplicate, never a skip — a
     thief only ever stores [c + 1] after reading slot [c].

   - A slow thief's stale store can *regress* [con], re-exposing
     already-consumed indices: later thieves re-extract those tasks
     (more duplicates), but the window [con, pub) only ever re-opens
     over indices whose tasks were already returned.

   - Ring reuse is safe because publishing index [p] requires
     [con >= p] first, i.e. every index below [p] — in particular
     [p - board_length], the slot's previous occupant — was already
     returned to somebody.  A maximally stale thief parked on an old
     index therefore reads either the task that was pending there
     (already returned: duplicate) or a newer pushed task (which the
     advancing cursor will also return: duplicate), never garbage:
     slot writes are plain, but a racy read of a word-sized slot
     returns some value actually written there, and the thief's
     earlier acquiring read of [pub] orders it after the slot's
     initializing write.

   Inductive no-loss invariant: whenever [con] holds the value [v],
   every board index below [v] has been returned by some extraction.
   (A thief stores [c + 1] only after reading a task from slot
   [c land mask]; that task belongs to index [c] — covered now — or to
   a later index [c + k*len] whose publication required [con >= c]
   beforehand, covering [c] inductively.)

   Consequences for a scheduler: extraction is at-least-once, so the
   layer above must discard duplicates (e.g. a per-task claim flag, a
   single [Atomic.compare_and_set] at *execution* time, off the steal
   path).  Serially — with no concurrent
   extraction — the deque is exactly-once and [pop_bottom] agrees with
   the ideal LIFO {!Spec.Reference}; [pop_top] may return [Empty]
   while private work exists (only published work is visible to
   thieves), which the relaxed semantics' NIL already allows. *)

type 'a t = {
  (* Owner-private ring: oldest at [head], newest at [head + count - 1].
     Plain fields; only the owner reads or writes them. *)
  mutable priv : 'a option array;
  mutable head : int;
  mutable count : int;
  (* Publication board.  Slots are written only by the owner, read
     racily by thieves; the cursors are monotone except for stale-thief
     regressions of [con] (analyzed above). *)
  board : 'a option array;
  pub : int Atomic.t;
  con : int Atomic.t;
}

let default_capacity = 64

(* Small power of two: the board holds at most one pending task, the
   ring depth only spaces out index reuse (longer rings make a stale
   thief's duplicate window rarer, at no cost on any fast path). *)
let board_length = 8

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Wsm_deque.create: capacity >= 1 required";
  Padding.copy_as_padded
    {
      priv = Array.make capacity None;
      head = 0;
      count = 0;
      board = Array.make board_length None;
      pub = Padding.atomic 0;
      con = Padding.atomic 0;
    }

(* ------------------------------------------------------------------ *)
(* Owner-private ring (plain operations).                             *)

let ensure_capacity t =
  let cap = Array.length t.priv in
  if t.count = cap then begin
    let bigger = Array.make (cap * 2) None in
    for i = 0 to t.count - 1 do
      bigger.(i) <- t.priv.((t.head + i) mod cap)
    done;
    t.priv <- bigger;
    t.head <- 0
  end

let priv_push_newest t x =
  ensure_capacity t;
  t.priv.((t.head + t.count) mod Array.length t.priv) <- Some x;
  t.count <- t.count + 1

let priv_pop_newest t =
  let i = (t.head + t.count - 1) mod Array.length t.priv in
  let x = t.priv.(i) in
  t.priv.(i) <- None;
  t.count <- t.count - 1;
  match x with Some v -> v | None -> assert false

let priv_take_oldest t =
  let x = t.priv.(t.head) in
  t.priv.(t.head) <- None;
  t.head <- (t.head + 1) mod Array.length t.priv;
  t.count <- t.count - 1;
  match x with Some v -> v | None -> assert false

(* ------------------------------------------------------------------ *)
(* Publication.                                                       *)

(* Owner: if the board is drained and private work exists, publish the
   oldest private task.  The slot store precedes the [pub] store, so
   any thief whose read of [pub] covers index [p] also sees the slot's
   value (publication ordering); the publish precondition [con >= pub]
   is exactly what makes the slot's reuse safe. *)
let maybe_publish t =
  if t.count > 0 then begin
    let p = Atomic.get t.pub in
    if Atomic.get t.con >= p then begin
      let x = priv_take_oldest t in
      t.board.(p land (board_length - 1)) <- Some x;
      Atomic.set t.pub (p + 1)
    end
  end

(* The read/write-only extraction shared by thieves and the owner's
   reclaim path: loads of [con], [pub] and the slot, then one blind
   store of [con + 1].  Never CASes, never retries. *)
let take_published t =
  let c = Atomic.get t.con in
  let p = Atomic.get t.pub in
  if c >= p then Spec.Empty
  else
    match t.board.(c land (board_length - 1)) with
    | None ->
        (* Unreachable through the publication ordering; kept as a
           defensive NIL — returning Empty without advancing [con] can
           never lose work. *)
        Spec.Empty
    | Some v ->
        Atomic.set t.con (c + 1);
        Spec.Got v

(* ------------------------------------------------------------------ *)
(* Deque methods.                                                     *)

let push_bottom t x =
  priv_push_newest t x;
  maybe_publish t

let pop_bottom_detailed t =
  if t.count > 0 then begin
    let x = priv_pop_newest t in
    (* Top up the board so a long-running owner never leaves thieves
       staring at a drained board while private work remains. *)
    maybe_publish t;
    Spec.Got x
  end
  else
    (* Nothing private: reclaim the published task, racing thieves on
       equal read/write-only terms.  Both sides may win — the layer
       above must discard the duplicate execution. *)
    take_published t

let pop_top_detailed = take_published

let to_option = function Spec.Got x -> Some x | Spec.Empty | Spec.Contended -> None
let pop_bottom t = to_option (pop_bottom_detailed t)
let pop_top t = to_option (pop_top_detailed t)

(* Advisory: exact for the owner and serially; a stale-regressed [con]
   can briefly overstate the pending window under concurrency. *)
let size t = t.count + max 0 (Atomic.get t.pub - Atomic.get t.con)
let is_empty t = size t = 0
