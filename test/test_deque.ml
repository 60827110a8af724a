(* Serial tests for the deque implementations: every implementation must
   agree with the Reference oracle on single-threaded operation sequences,
   and the Age packing must round-trip. *)

open Abp_deque
module Rng = Abp_stats.Rng

let lifo_fifo_smoke (module D : Spec.S) () =
  let d : int D.t = D.create () in
  Alcotest.(check bool) "fresh empty" true (D.is_empty d);
  D.push_bottom d 1;
  D.push_bottom d 2;
  D.push_bottom d 3;
  Alcotest.(check int) "size 3" 3 (D.size d);
  (* Owner side is LIFO... *)
  Alcotest.(check (option int)) "pop_bottom = 3" (Some 3) (D.pop_bottom d);
  (* ...thief side is FIFO. *)
  Alcotest.(check (option int)) "pop_top = 1" (Some 1) (D.pop_top d);
  Alcotest.(check (option int)) "pop_bottom = 2" (Some 2) (D.pop_bottom d);
  Alcotest.(check (option int)) "empty pop_bottom" None (D.pop_bottom d);
  Alcotest.(check (option int)) "empty pop_top" None (D.pop_top d)

(* Generic differential test of an implementation against the oracle over a
   random serial operation sequence. *)
let differential (module D : Spec.S) ~ops ~seed () =
  let rng = Rng.create ~seed () in
  let d = D.create ~capacity:4096 () in
  let oracle = Spec.Reference.create () in
  let next = ref 0 in
  for _ = 1 to ops do
    match Rng.int rng 3 with
    | 0 ->
        incr next;
        D.push_bottom d !next;
        Spec.Reference.push_bottom oracle !next
    | 1 ->
        let got = D.pop_bottom d and want = Spec.Reference.pop_bottom oracle in
        Alcotest.(check (option int)) "pop_bottom agrees" want got
    | _ ->
        let got = D.pop_top d and want = Spec.Reference.pop_top oracle in
        Alcotest.(check (option int)) "pop_top agrees" want got
  done;
  Alcotest.(check int) "final size agrees" (Spec.Reference.size oracle) (D.size d)

let age_roundtrip () =
  List.iter
    (fun (tag, top) ->
      let a = Age.pack ~tag ~top in
      Alcotest.(check int) "top" top (Age.top a);
      Alcotest.(check int) "tag" tag (Age.tag a);
      let b = Age.of_packed (a :> int) in
      Alcotest.(check bool) "of_packed roundtrip" true (Age.equal a b))
    [ (0, 0); (1, 0); (0, 1); (12345, 67890); (Age.max_top, Age.max_top) ]

let age_bump () =
  let a = Age.pack ~tag:5 ~top:17 in
  let b = Age.bump_tag a in
  Alcotest.(check int) "tag+1" 6 (Age.tag b);
  Alcotest.(check int) "top reset" 0 (Age.top b);
  (* wraparound *)
  let w = Age.bump_tag (Age.pack ~tag:Age.max_top ~top:3) in
  Alcotest.(check int) "tag wraps" 0 (Age.tag w)

let age_with_top () =
  let a = Age.pack ~tag:9 ~top:4 in
  let b = Age.with_top a 5 in
  Alcotest.(check int) "tag kept" 9 (Age.tag b);
  Alcotest.(check int) "top set" 5 (Age.top b)

let age_rejects_out_of_range () =
  Alcotest.check_raises "top" (Invalid_argument "Age.pack: top out of range") (fun () ->
      ignore (Age.pack ~tag:0 ~top:(-1)));
  Alcotest.check_raises "tag" (Invalid_argument "Age.pack: tag out of range") (fun () ->
      ignore (Age.pack ~tag:(Age.max_top + 1) ~top:0))

let atomic_tag_increments_on_reset () =
  let d : int Atomic_deque.t = Atomic_deque.create ~capacity:8 () in
  let tag0 = Atomic_deque.tag_of d in
  Atomic_deque.push_bottom d 1;
  (* popBottom on the last element goes through the reset path. *)
  Alcotest.(check (option int)) "pops 1" (Some 1) (Atomic_deque.pop_bottom d);
  Alcotest.(check int) "tag bumped" (tag0 + 1) (Atomic_deque.tag_of d);
  Alcotest.(check int) "top reset" 0 (Atomic_deque.top_of d);
  Alcotest.(check int) "bot reset" 0 (Atomic_deque.bot_of d)

let atomic_overflow_raises () =
  let d : int Atomic_deque.t = Atomic_deque.create ~capacity:2 () in
  Atomic_deque.push_bottom d 1;
  Atomic_deque.push_bottom d 2;
  Alcotest.check_raises "overflow" (Failure "Atomic_deque: overflow") (fun () ->
      Atomic_deque.push_bottom d 3)

let bounded_tag_succ () =
  Alcotest.(check int) "width 0 is constant" 0 (Bounded_tag.succ ~width:0 0);
  Alcotest.(check int) "width 2 wraps" 0 (Bounded_tag.succ ~width:2 3);
  Alcotest.(check int) "width 2 counts" 2 (Bounded_tag.succ ~width:2 1)

let bounded_tag_distance () =
  Alcotest.(check int) "forward" 3 (Bounded_tag.distance ~width:4 2 5);
  Alcotest.(check int) "wrap" 15 (Bounded_tag.distance ~width:4 5 4)

let bounded_tag_safe_window () =
  Alcotest.(check bool) "width 0 never safe" false
    (Bounded_tag.safe_window ~width:0 ~in_flight_resets:1);
  Alcotest.(check bool) "width 0 trivially safe at 0" true
    (Bounded_tag.safe_window ~width:0 ~in_flight_resets:0);
  Alcotest.(check bool) "width 2 safe under 4" true
    (Bounded_tag.safe_window ~width:2 ~in_flight_resets:3);
  Alcotest.(check bool) "width 2 unsafe at 4" false
    (Bounded_tag.safe_window ~width:2 ~in_flight_resets:4)

(* qcheck: random op sequences across implementations. *)
let prop_differential name (module D : Spec.S) =
  QCheck2.Test.make ~name ~count:50
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 2))
    (fun ops ->
      let d = D.create ~capacity:1024 () in
      let oracle = Spec.Reference.create () in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              incr next;
              D.push_bottom d !next;
              Spec.Reference.push_bottom oracle !next;
              true
          | 1 -> D.pop_bottom d = Spec.Reference.pop_bottom oracle
          | _ -> D.pop_top d = Spec.Reference.pop_top oracle)
        ops)

let circular_grows_transparently () =
  let d : int Circular_deque.t = Circular_deque.create ~capacity:2 () in
  let n = 1000 in
  for i = 1 to n do
    Circular_deque.push_bottom d i
  done;
  Alcotest.(check int) "size" n (Circular_deque.size d);
  Alcotest.(check bool) "grew" true (Circular_deque.grows d > 0);
  Alcotest.(check bool) "capacity >= n" true (Circular_deque.capacity d >= n);
  (* All values retrievable in LIFO order from the bottom. *)
  for i = n downto 1 do
    Alcotest.(check (option int)) "pop" (Some i) (Circular_deque.pop_bottom d)
  done;
  Alcotest.(check bool) "empty" true (Circular_deque.is_empty d)

let circular_no_reset_needed () =
  (* Unlike the ABP deque, push/popTop cycles never exhaust the index
     space: the circular buffer reuses slots. *)
  let d : int Circular_deque.t = Circular_deque.create ~capacity:4 () in
  for i = 1 to 10_000 do
    Circular_deque.push_bottom d i;
    Alcotest.(check (option int)) "steal" (Some i) (Circular_deque.pop_top d)
  done;
  Alcotest.(check int) "capacity stayed small" 4 (Circular_deque.capacity d)

let circular_shrinks_after_drain () =
  (* Chase-Lev Section 4 reclamation: a burst that doubled the buffer is
     reclaimed as the owner drains it, back down to the creation-time
     floor — and the deque stays fully usable afterwards. *)
  let d : int Circular_deque.t = Circular_deque.create ~capacity:4 () in
  let n = 1_000 in
  for i = 1 to n do
    Circular_deque.push_bottom d i
  done;
  Alcotest.(check bool) "grew" true (Circular_deque.grows d > 0);
  for i = n downto 1 do
    Alcotest.(check (option int)) "pop" (Some i) (Circular_deque.pop_bottom d)
  done;
  Alcotest.(check bool) "shrank" true (Circular_deque.shrinks d > 0);
  Alcotest.(check int) "capacity back at the floor"
    (Circular_deque.initial_capacity d)
    (Circular_deque.capacity d);
  for i = 1 to 100 do
    Circular_deque.push_bottom d i
  done;
  for i = 100 downto 1 do
    Alcotest.(check (option int)) "re-pop after reclaim" (Some i) (Circular_deque.pop_bottom d)
  done;
  Alcotest.(check bool) "empty" true (Circular_deque.is_empty d)

(* qcheck: bursty push/drain phases force repeated grow/shrink cycles;
   the shrinking deque must stay indistinguishable from the oracle. *)
let prop_circular_shrink_differential =
  QCheck2.Test.make ~name:"circular shrink/grow cycles match oracle" ~count:100
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 9))
    (fun phases ->
      let d : int Circular_deque.t = Circular_deque.create ~capacity:2 () in
      let oracle = Spec.Reference.create () in
      let next = ref 0 in
      let ok =
        List.for_all
          (fun ph ->
            for _ = 1 to (ph * 7) + 1 do
              incr next;
              Circular_deque.push_bottom d !next;
              Spec.Reference.push_bottom oracle !next
            done;
            let pops = (ph * 5) + 3 in
            let rec drain k =
              k = 0
              ||
              let agree =
                if ph land 1 = 0 then
                  Circular_deque.pop_bottom d = Spec.Reference.pop_bottom oracle
                else Circular_deque.pop_top d = Spec.Reference.pop_top oracle
              in
              agree && drain (k - 1)
            in
            drain pops)
          phases
      in
      ok
      && Circular_deque.size d = Spec.Reference.size oracle
      && Circular_deque.capacity d >= Circular_deque.initial_capacity d)

(* Concurrent conservation: two thief domains racing a pushing/popping
   owner; every value is consumed exactly once.  [capacity] must cover
   every push on the fixed-array deque, whose [bot] resets only when the
   owner empties it. *)
let concurrent_conservation (module D : Spec.S) ~capacity () =
  let d : int D.t = D.create ~capacity () in
  let n = 20_000 in
  let stop = Atomic.make false in
  let stolen_sum = Atomic.make 0 and stolen_count = Atomic.make 0 in
  let thief () =
    let rec loop () =
      match D.pop_top d with
      | Some v ->
          ignore (Atomic.fetch_and_add stolen_sum v);
          ignore (Atomic.fetch_and_add stolen_count 1);
          loop ()
      | None -> if Atomic.get stop then () else (Domain.cpu_relax (); loop ())
    in
    loop ()
  in
  let thieves = Array.init 2 (fun _ -> Domain.spawn thief) in
  let own_sum = ref 0 and own_count = ref 0 in
  for i = 1 to n do
    D.push_bottom d i;
    if i mod 3 = 0 then
      match D.pop_bottom d with
      | Some v ->
          own_sum := !own_sum + v;
          incr own_count
      | None -> ()
  done;
  let rec drain () =
    match D.pop_bottom d with
    | Some v ->
        own_sum := !own_sum + v;
        incr own_count;
        drain ()
    | None -> if not (D.is_empty d) then drain ()
  in
  drain ();
  Atomic.set stop true;
  Array.iter Domain.join thieves;
  Alcotest.(check int) "every value consumed once" n (!own_count + Atomic.get stolen_count);
  Alcotest.(check int) "sum conserved" (n * (n + 1) / 2) (!own_sum + Atomic.get stolen_sum)

(* Serially no process races the caller, so a [DETAILED] pop never
   reports [Contended]: [Got v] is exactly the oracle's [Some v] and
   [Empty] its [None].  These are the operations the pool's scheduling
   loop and {!Abp_hood.Pool.steal_from} run, one task per call. *)
let prop_detailed_differential name (module D : Spec.DETAILED) =
  let agrees got want =
    match (got, want) with
    | Spec.Got v, Some w -> v = w
    | Spec.Empty, None -> true
    | _ -> false
  in
  QCheck2.Test.make ~name ~count:50
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 2))
    (fun ops ->
      let d = D.create ~capacity:1024 () in
      let oracle = Spec.Reference.create () in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              incr next;
              D.push_bottom d !next;
              Spec.Reference.push_bottom oracle !next;
              true
          | 1 -> agrees (D.pop_bottom_detailed d) (Spec.Reference.pop_bottom oracle)
          | _ -> agrees (D.pop_top_detailed d) (Spec.Reference.pop_top oracle))
        ops
      && D.size d = Spec.Reference.size oracle)

(* --- wsm: the fence-free multiplicity deque -------------------------- *)

(* Serially the wsm deque is exact for the owner and exact-when-it-answers
   for the thief: popTop's [Some v] is always the true oldest item (the
   published window holds the globally oldest), but [None] can come early
   when the window is drained and the remaining items are still in the
   owner's private segment — the documented weakening of {!Spec.S}. *)
let wsm_serial_differential ~ops ~seed () =
  let rng = Rng.create ~seed () in
  let d : int Wsm_deque.t = Wsm_deque.create ~capacity:64 () in
  let oracle = Spec.Reference.create () in
  let next = ref 0 in
  let nil_early = ref 0 in
  for _ = 1 to ops do
    match Rng.int rng 3 with
    | 0 ->
        incr next;
        Wsm_deque.push_bottom d !next;
        Spec.Reference.push_bottom oracle !next
    | 1 ->
        let got = Wsm_deque.pop_bottom d and want = Spec.Reference.pop_bottom oracle in
        Alcotest.(check (option int)) "wsm pop_bottom exact" want got
    | _ -> (
        match Wsm_deque.pop_top d with
        | Some v ->
            Alcotest.(check (option int)) "wsm pop_top returns the true top"
              (Spec.Reference.pop_top oracle) (Some v)
        | None ->
            (* Legal even when nonempty; the oracle is left untouched, so
               both sides still hold the same items. *)
            if Spec.Reference.size oracle > 0 then incr nil_early)
  done;
  Alcotest.(check int) "final size agrees" (Spec.Reference.size oracle) (Wsm_deque.size d);
  let rec drain () =
    let got = Wsm_deque.pop_bottom d and want = Spec.Reference.pop_bottom oracle in
    Alcotest.(check (option int)) "drain agrees" want got;
    if got <> None then drain ()
  in
  drain ();
  (* The weakening must actually be exercised, or this test proves less
     than it claims. *)
  Alcotest.(check bool) "early Nil path exercised" true (!nil_early > 0)

(* A wsm thief sees only the published window: one item at a time,
   and an early NIL once that window is drained while the owner still
   holds private work, until the owner's next pop republishes the next
   oldest item. *)
let wsm_pop_top_published_window () =
  let d : int Wsm_deque.t = Wsm_deque.create ~capacity:8 () in
  for i = 1 to 6 do
    Wsm_deque.push_bottom d i
  done;
  Alcotest.(check (option int)) "the oldest item" (Some 1) (Wsm_deque.pop_top d);
  Alcotest.(check int) "rest untouched" 5 (Wsm_deque.size d);
  Alcotest.(check (option int)) "drained window yields NIL" None (Wsm_deque.pop_top d);
  Alcotest.(check int) "NIL removed nothing" 5 (Wsm_deque.size d);
  Alcotest.(check (option int)) "owner pops newest" (Some 6) (Wsm_deque.pop_bottom d);
  Alcotest.(check (option int)) "owner's pop republished the next oldest" (Some 2)
    (Wsm_deque.pop_top d)

(* The relaxed serial contract of [pop_top_detailed] on wsm: [Got v] is
   always the oracle's next popTop, an [Empty] may come early (the
   oracle is then left alone), and [Contended] never happens without a
   racing process; the owner's pops are exact. *)
let prop_wsm_detailed_relaxed =
  QCheck2.Test.make ~name:"wsm detailed ops meet the relaxed oracle" ~count:50
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 2))
    (fun ops ->
      let d : int Wsm_deque.t = Wsm_deque.create ~capacity:256 () in
      let oracle = Spec.Reference.create () in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              incr next;
              Wsm_deque.push_bottom d !next;
              Spec.Reference.push_bottom oracle !next;
              true
          | 1 -> (
              match (Wsm_deque.pop_bottom_detailed d, Spec.Reference.pop_bottom oracle) with
              | Spec.Got v, Some w -> v = w
              | Spec.Empty, None -> true
              | _ -> false)
          | _ -> (
              match Wsm_deque.pop_top_detailed d with
              | Spec.Got v -> Spec.Reference.pop_top oracle = Some v
              | Spec.Empty -> true
              | Spec.Contended -> false))
        ops
      && Wsm_deque.size d = Spec.Reference.size oracle)

(* --- the multiset oracle --------------------------------------------- *)

(* Mutation-style self-test: the oracle must actually reject bad traces,
   otherwise the differentials below prove nothing.  A deliberately
   duplicated extraction is illegal under the exactly-once law yet legal
   under multiplicity; extracting a never-pushed value is illegal under
   both. *)
let multiset_rejects_mutants () =
  let m : int Spec.Multiset_reference.t = Spec.Multiset_reference.create () in
  Spec.Multiset_reference.push m 1;
  Alcotest.(check bool) "first extract unique" true
    (Spec.Multiset_reference.extract m 1 = Spec.Multiset_reference.Unique);
  Alcotest.(check bool) "clean trace legal (strict)" true
    (Spec.Multiset_reference.legal ~allows_multiplicity:false m);
  (* The mutant: replay the same steal, as a lost CAS race would. *)
  Alcotest.(check bool) "duplicate flagged" true
    (Spec.Multiset_reference.extract m 1 = Spec.Multiset_reference.Duplicate);
  Alcotest.(check bool) "strict law rejects the duplicated trace" false
    (Spec.Multiset_reference.legal ~allows_multiplicity:false m);
  Alcotest.(check bool) "multiplicity law tolerates it" true
    (Spec.Multiset_reference.legal ~allows_multiplicity:true m);
  Alcotest.(check int) "one duplicate counted" 1 (Spec.Multiset_reference.duplicates m);
  Alcotest.(check int) "nothing outstanding" 0 (Spec.Multiset_reference.outstanding m);
  (* An invented value breaks even the relaxed law. *)
  Alcotest.(check bool) "never-pushed flagged" true
    (Spec.Multiset_reference.extract m 2 = Spec.Multiset_reference.Never_pushed);
  Alcotest.(check bool) "relaxed law rejects invention" false
    (Spec.Multiset_reference.legal ~allows_multiplicity:true m)

(* qcheck: every backend run serially against the multiset oracle.  The
   exactly-once backends must satisfy the strict law; wsm is held to the
   law its contract actually promises (multiplicity allowed — serially it
   never duplicates, but the harness must not assume so). *)
let prop_multiset_differential name (module D : Spec.S) ~allows_multiplicity =
  QCheck2.Test.make ~name ~count:50
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 2))
    (fun ops ->
      let d = D.create ~capacity:1024 () in
      let m = Spec.Multiset_reference.create () in
      let next = ref 0 in
      let extract v = ignore (Spec.Multiset_reference.extract m v) in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              incr next;
              D.push_bottom d !next;
              Spec.Multiset_reference.push m !next
          | 1 -> Option.iter extract (D.pop_bottom d)
          | _ -> Option.iter extract (D.pop_top d))
        ops;
      let rec drain () =
        match D.pop_bottom d with
        | Some v ->
            extract v;
            drain ()
        | None -> ()
      in
      drain ();
      Spec.Multiset_reference.legal ~allows_multiplicity m
      && Spec.Multiset_reference.outstanding m = 0)

let tests =
  [
    Alcotest.test_case "atomic: smoke" `Quick (lifo_fifo_smoke (module Atomic_deque));
    Alcotest.test_case "locked: smoke" `Quick (lifo_fifo_smoke (module Locked_deque));
    Alcotest.test_case "reference: smoke" `Quick (lifo_fifo_smoke (module Spec.Reference));
    Alcotest.test_case "atomic: differential" `Quick
      (differential (module Atomic_deque) ~ops:5000 ~seed:101L);
    Alcotest.test_case "locked: differential" `Quick
      (differential (module Locked_deque) ~ops:5000 ~seed:102L);
    Alcotest.test_case "age roundtrip" `Quick age_roundtrip;
    Alcotest.test_case "age bump_tag" `Quick age_bump;
    Alcotest.test_case "age with_top" `Quick age_with_top;
    Alcotest.test_case "age rejects out-of-range" `Quick age_rejects_out_of_range;
    Alcotest.test_case "atomic: tag increments on reset" `Quick atomic_tag_increments_on_reset;
    Alcotest.test_case "atomic: overflow raises" `Quick atomic_overflow_raises;
    Alcotest.test_case "bounded tag: succ" `Quick bounded_tag_succ;
    Alcotest.test_case "bounded tag: distance" `Quick bounded_tag_distance;
    Alcotest.test_case "bounded tag: safe window" `Quick bounded_tag_safe_window;
    Alcotest.test_case "circular: smoke" `Quick (lifo_fifo_smoke (module Circular_deque));
    Alcotest.test_case "circular: differential" `Quick
      (differential (module Circular_deque) ~ops:5000 ~seed:103L);
    Alcotest.test_case "circular: grows transparently" `Quick circular_grows_transparently;
    Alcotest.test_case "circular: index space never exhausts" `Quick circular_no_reset_needed;
    Alcotest.test_case "circular: shrinks after drain" `Quick circular_shrinks_after_drain;
    QCheck_alcotest.to_alcotest prop_circular_shrink_differential;
    Alcotest.test_case "circular: concurrent conservation" `Quick
      (concurrent_conservation (module Circular_deque) ~capacity:4);
    Alcotest.test_case "locked: concurrent conservation" `Quick
      (concurrent_conservation (module Locked_deque) ~capacity:4);
    QCheck_alcotest.to_alcotest (prop_differential "atomic matches oracle" (module Atomic_deque));
    QCheck_alcotest.to_alcotest (prop_differential "locked matches oracle" (module Locked_deque));
    QCheck_alcotest.to_alcotest (prop_differential "circular matches oracle" (module Circular_deque));
    QCheck_alcotest.to_alcotest
      (prop_detailed_differential "atomic detailed ops match oracle" (module Atomic_deque));
    QCheck_alcotest.to_alcotest
      (prop_detailed_differential "circular detailed ops match oracle" (module Circular_deque));
    QCheck_alcotest.to_alcotest
      (prop_detailed_differential "locked detailed ops match oracle" (module Locked_deque));
    Alcotest.test_case "wsm: smoke" `Quick (lifo_fifo_smoke (module Wsm_deque));
    Alcotest.test_case "wsm: serial differential (relaxed popTop)" `Quick
      (wsm_serial_differential ~ops:5000 ~seed:107L);
    Alcotest.test_case "wsm: popTop sees only the published window" `Quick
      wsm_pop_top_published_window;
    QCheck_alcotest.to_alcotest prop_wsm_detailed_relaxed;
    Alcotest.test_case "multiset oracle: rejects mutant traces" `Quick multiset_rejects_mutants;
    QCheck_alcotest.to_alcotest
      (prop_multiset_differential "atomic exactly-once vs multiset oracle" (module Atomic_deque)
         ~allows_multiplicity:false);
    QCheck_alcotest.to_alcotest
      (prop_multiset_differential "circular exactly-once vs multiset oracle"
         (module Circular_deque) ~allows_multiplicity:false);
    QCheck_alcotest.to_alcotest
      (prop_multiset_differential "locked exactly-once vs multiset oracle" (module Locked_deque)
         ~allows_multiplicity:false);
    QCheck_alcotest.to_alcotest
      (prop_multiset_differential "wsm vs multiset oracle (multiplicity allowed)"
         (module Wsm_deque) ~allows_multiplicity:true);
  ]
