let default_capacity = 1 lsl 16

module Core = struct
  type 'e t = {
    deq : 'e array;
    bot : int Atomic.t;  (* padded: owner-hot, own cache line *)
    age : int Atomic.t;  (* packed Age.t; padded: thief-hot, own cache line *)
    empty : 'e;
    lost : 'e;
  }

  (* [bot] and [age] are the two contended words of the algorithm: the
     owner stores [bot] on every push/pop while thieves CAS [age].
     Padding each onto its own cache line keeps an owner push from
     invalidating the thieves' [age] line (and vice versa) — without it
     the two atomics are allocated back to back and share a line. *)
  let create ?(capacity = default_capacity) ~empty ~lost () =
    if capacity < 1 then invalid_arg "Atomic_deque.create: capacity >= 1 required";
    if capacity > Age.max_top then invalid_arg "Atomic_deque.create: capacity too large";
    {
      deq = Array.make capacity empty;
      bot = Padding.atomic 0;
      age = Padding.atomic (Age.pack ~tag:0 ~top:0 :> int);
      empty;
      lost;
    }

  (* Array accesses below use the unsafe primitives: every index is [bot]
     or [age.top], both already range-checked against the capacity by the
     algorithm itself ([push]'s overflow test; pops only read indices
     below a previously stored [bot]). *)

  (* pushBottom (Figure 5):
       1  load  localBot <- bot
       2  store node -> deq[localBot]
       3  localBot <- localBot + 1
       4  store localBot -> bot
     then one load of [age] for the size the push leaves. *)
  let push t node =
    let local_bot = Atomic.get t.bot in
    if local_bot >= Array.length t.deq then failwith "Atomic_deque: overflow";
    Array.unsafe_set t.deq local_bot node;
    Atomic.set t.bot (local_bot + 1);
    local_bot + 1 - Age.top (Age.of_packed (Atomic.get t.age))

  (* popTop (Figure 5):
       1  load oldAge <- age
       2  load localBot <- bot
       3  if localBot <= oldAge.top: return NIL
       4  load node <- deq[oldAge.top]
       5  newAge <- oldAge; newAge.top++
       6  cas (age, oldAge, newAge)
       7  if success: return node
       8  return NIL
     Line 3's NIL is [empty], line 8's [lost]. *)
  let pop_top t =
    let old_word = Atomic.get t.age in
    let old_age = Age.of_packed old_word in
    let local_bot = Atomic.get t.bot in
    if local_bot <= Age.top old_age then t.empty
    else begin
      let node = Array.unsafe_get t.deq (Age.top old_age) in
      let new_word = (Age.incr_top old_age :> int) in
      if Atomic.compare_and_set t.age old_word new_word then node else t.lost
    end

  (* popBottom (Figure 5):
       1  load localBot <- bot
       2  if localBot = 0: return NIL
       3  localBot--
       4  store localBot -> bot
       5  load node <- deq[localBot]
       6  load oldAge <- age
       7  if localBot > oldAge.top: return node
       8  store 0 -> bot
       9  newAge.top <- 0; newAge.tag <- oldAge.tag + 1
       10 if localBot = oldAge.top:
       11   cas (age, oldAge, newAge); if success: return node
       12 store newAge -> age
       13 return NIL
     Line 13's NIL is [lost] when localBot = top (the last item was
     stolen mid-invocation: line 11's CAS lost), and [empty] when
     localBot < top (thieves had already drained the deque). *)
  let pop_bottom t =
    let local_bot = Atomic.get t.bot in
    if local_bot = 0 then t.empty
    else begin
      let local_bot = local_bot - 1 in
      Atomic.set t.bot local_bot;
      let node = Array.unsafe_get t.deq local_bot in
      let old_word = Atomic.get t.age in
      let old_age = Age.of_packed old_word in
      if local_bot > Age.top old_age then node
      else begin
        Atomic.set t.bot 0;
        let new_word = (Age.bump_tag old_age :> int) in
        if local_bot = Age.top old_age && Atomic.compare_and_set t.age old_word new_word then node
        else begin
          Atomic.set t.age new_word;
          if local_bot = Age.top old_age then t.lost else t.empty
        end
      end
    end

  let top_of t = Age.top (Age.of_packed (Atomic.get t.age))
  let tag_of t = Age.tag (Age.of_packed (Atomic.get t.age))
  let bot_of t = Atomic.get t.bot
  let size t = Int.max 0 (bot_of t - top_of t)
end

include Spec.Of_core (Core)

let tag_of = Core.tag_of
let top_of = Core.top_of
let bot_of = Core.bot_of
