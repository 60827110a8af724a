type 'a t = {
  deq : 'a option array;
  bot : int Atomic.t;  (* padded: owner-hot, own cache line *)
  age : int Atomic.t;  (* packed Age.t; padded: thief-hot, own cache line *)
}

let default_capacity = 1 lsl 16

(* [bot] and [age] are the two contended words of the algorithm: the
   owner stores [bot] on every push/pop while thieves CAS [age].  Padding
   each onto its own cache line keeps an owner push from invalidating the
   thieves' [age] line (and vice versa) — without it the two atomics are
   allocated back to back and share a line. *)
let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Atomic_deque.create: capacity >= 1 required";
  if capacity > Age.max_top then invalid_arg "Atomic_deque.create: capacity too large";
  {
    deq = Array.make capacity None;
    bot = Padding.atomic 0;
    age = Padding.atomic (Age.pack ~tag:0 ~top:0 :> int);
  }

(* Array accesses below use the unsafe primitives: every index is [bot]
   or [age.top], both already range-checked against the capacity by the
   algorithm itself ([push_bottom]'s overflow test; pops only read
   indices below a previously stored [bot]). *)

(* pushBottom (Figure 5):
     1  load  localBot <- bot
     2  store node -> deq[localBot]
     3  localBot <- localBot + 1
     4  store localBot -> bot *)
let push_bottom t node =
  let local_bot = Atomic.get t.bot in
  if local_bot >= Array.length t.deq then failwith "Atomic_deque: overflow";
  Array.unsafe_set t.deq local_bot (Some node);
  Atomic.set t.bot (local_bot + 1)

(* popTop (Figure 5):
     1  load oldAge <- age
     2  load localBot <- bot
     3  if localBot <= oldAge.top: return NIL
     4  load node <- deq[oldAge.top]
     5  newAge <- oldAge; newAge.top++
     6  cas (age, oldAge, newAge)
     7  if success: return node
     8  return NIL

   The [_detailed] variant distinguishes the two NIL paths (line 3's
   empty observation vs line 6's lost CAS) for the telemetry layer. *)
let pop_top_detailed t =
  let old_word = Atomic.get t.age in
  let old_age = Age.of_packed old_word in
  let local_bot = Atomic.get t.bot in
  if local_bot <= Age.top old_age then Spec.Empty
  else begin
    let node = Array.unsafe_get t.deq (Age.top old_age) in
    let new_word = (Age.incr_top old_age :> int) in
    if Atomic.compare_and_set t.age old_word new_word then
      match node with Some x -> Spec.Got x | None -> Spec.Empty
    else Spec.Contended
  end

(* Direct option variant: same method without the intermediate
   [Spec.detailed] block — the uninstrumented path allocates at most the
   [Some] it returns. *)
let pop_top t =
  let old_word = Atomic.get t.age in
  let old_age = Age.of_packed old_word in
  let local_bot = Atomic.get t.bot in
  if local_bot <= Age.top old_age then None
  else begin
    let node = Array.unsafe_get t.deq (Age.top old_age) in
    let new_word = (Age.incr_top old_age :> int) in
    if Atomic.compare_and_set t.age old_word new_word then node else None
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
     13 return NIL *)
let pop_bottom_detailed t =
  let local_bot = Atomic.get t.bot in
  if local_bot = 0 then Spec.Empty
  else begin
    let local_bot = local_bot - 1 in
    Atomic.set t.bot local_bot;
    let node = Array.unsafe_get t.deq local_bot in
    let old_word = Atomic.get t.age in
    let old_age = Age.of_packed old_word in
    let got () = match node with Some x -> Spec.Got x | None -> Spec.Empty in
    if local_bot > Age.top old_age then got ()
    else begin
      Atomic.set t.bot 0;
      let new_word = (Age.bump_tag old_age :> int) in
      if local_bot = Age.top old_age && Atomic.compare_and_set t.age old_word new_word then got ()
      else begin
        Atomic.set t.age new_word;
        (* localBot = top means the last item was stolen mid-invocation
           (the line 11 CAS lost); localBot < top means the deque had
           already been drained by thieves. *)
        if local_bot = Age.top old_age then Spec.Contended else Spec.Empty
      end
    end
  end

(* Direct option variant of popBottom (see pop_top). *)
let pop_bottom t =
  let local_bot = Atomic.get t.bot in
  if local_bot = 0 then None
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
        None
      end
    end
  end

(* Batched steal fallback: the ABP deque transfers exactly one item per
   steal, by design.  Its packed [age] CAS (Figure 5 line 6) validates a
   single [top] index; advancing [top] by [k] in one CAS is unsound for
   the same owner-race reason as in {!Circular_deque} (the owner's
   popBottom fast path takes [bot-1 > top] with no CAS), and a CAS-loop
   batch would additionally race the owner's reset path, which stores
   [bot = 0] and re-tags [age] mid-sequence — a claimed-but-not-yet-read
   range can be recycled under the thief.  Rather than perturb the
   verified Figure 4-5 protocol (whose exact semantics the model checker
   and the paper's bounds depend on), [pop_top_n] here degrades to at
   most one item per invocation; batching is a Circular/Locked feature. *)
let pop_top_n t n =
  if n < 1 then invalid_arg "Atomic_deque.pop_top_n: n >= 1 required";
  match pop_top t with Some x -> [ x ] | None -> []

let top_of t = Age.top (Age.of_packed (Atomic.get t.age))
let tag_of t = Age.tag (Age.of_packed (Atomic.get t.age))
let bot_of t = Atomic.get t.bot

let size t =
  let b = bot_of t and tp = top_of t in
  Int.max 0 (b - tp)

let is_empty t = size t = 0
