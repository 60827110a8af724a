(* Model-checker tests (experiment E14 at test scale): the production ABP
   deque meets the relaxed semantics under exhaustive interleaving, the
   tag field is load-bearing (removing it yields the ABA violation), and
   tag widths obey the bounded-tags safety condition; the production
   multiplicity deque loses nothing and duplicates only under races. *)

open Abp_mcheck
module Dc = Deque_checks
module Rng = Abp_stats.Rng

let verified name (r : Dc.report) =
  Alcotest.(check (list string)) (name ^ ": no violations") [] (Dc.violations r);
  List.iter
    (fun (pops, (run : Sched_explorer.report)) ->
      Alcotest.(check bool) (name ^ pops ^ ": explored states") true (run.states_explored > 0);
      Alcotest.(check bool) (name ^ pops ^ ": complete executions") true (run.complete_executions > 0))
    [ (" (detailed)", r.detailed); (" (option)", r.option) ]

let violated (r : Dc.report) = r.detailed.violations <> [] && r.option.violations <> []
let aba_with_tag_is_safe () = verified "aba+tag" (Dc.explore Dc.aba_scenario)

let aba_without_tag_fails () =
  let r = Dc.explore ~tag_width:0 Dc.aba_scenario in
  Alcotest.(check bool)
    ("found the ABA violation: " ^ String.concat "; " (Dc.violations r))
    true (violated r)

let wraparound_width1_fails () =
  let r = Dc.explore ~tag_width:1 Dc.wraparound_scenario in
  Alcotest.(check bool) "width 1 aliases after 2 resets" true (violated r)

let wraparound_width2_safe () =
  verified "wraparound width 2" (Dc.explore ~tag_width:2 Dc.wraparound_scenario)

let two_thieves_safe () = verified "two thieves" (Dc.explore Dc.two_thieves)
let owner_vs_thief_safe () = verified "owner vs thief" (Dc.explore Dc.owner_vs_thief_interleave)

(* One thief issuing three consecutive popTops against an owner that
   pushes four values and pops two, so the owner's reset/retag path can
   land between any two of the thief's steps; every interleaving must
   stay conservation-safe. *)
let thief_run_vs_owner_reset_safe () =
  verified "thief run vs owner reset"
    (Dc.explore
       {
         Dc.owner =
           [
             Dc.Push_bottom 1; Dc.Push_bottom 2; Dc.Push_bottom 3; Dc.Push_bottom 4; Dc.Pop_bottom;
             Dc.Pop_bottom;
           ];
         thieves = [ [ Dc.Pop_top; Dc.Pop_top; Dc.Pop_top ] ];
       })

let empty_program () =
  let r = Dc.explore { Dc.owner = []; thieves = [] } in
  Alcotest.(check int) "one completion" 1 r.detailed.complete_executions;
  Alcotest.(check (list string)) "no violations" [] (Dc.violations r)

let thief_on_empty_deque () =
  (* A lone popTop on an empty deque must return NIL legally. *)
  verified "thief on empty" (Dc.explore { Dc.owner = []; thieves = [ [ Dc.Pop_top ] ] })

let rejects_owner_op_in_thief () =
  Alcotest.check_raises "thief pushes"
    (Invalid_argument "Deque_checks: thief may only popTop, got pushBottom(1)") (fun () ->
      ignore (Dc.explore { Dc.owner = []; thieves = [ [ Dc.Push_bottom 1 ] ] }))

let three_thieves_safe () =
  (* Heavier contention: three thieves racing over two pushes.  Larger
     state space but still exhaustive: 5,574 states in each run. *)
  let program =
    { Dc.owner = [ Dc.Push_bottom 1; Dc.Push_bottom 2 ]; thieves = [ [ Dc.Pop_top ]; [ Dc.Pop_top ]; [ Dc.Pop_top ] ] }
  in
  let r = Dc.explore program in
  Alcotest.(check (list string)) "no violations" [] (Dc.violations r);
  Alcotest.(check bool) "big state space explored" true (r.detailed.states_explored > 5_500)

let owner_drain_vs_two_thieves () =
  let program =
    { Dc.owner = [ Dc.Push_bottom 1; Dc.Push_bottom 2; Dc.Pop_bottom; Dc.Pop_bottom ];
      thieves = [ [ Dc.Pop_top ]; [ Dc.Pop_top ] ] }
  in
  let r = Dc.explore program in
  Alcotest.(check (list string)) "no violations" [] (Dc.violations r)

(* A corpus of mixed owner/thief programs.  Owner scripts that drain the
   deque to empty go through the Figure 5 reset path (bot and top back to
   0, tag bumped), so the corpus probes the tag machinery from several
   angles.  [resets] marks programs whose owner can observe the deque
   empty mid-run: exactly those must exhibit the ABA violation once the
   tag is removed, while reset-free programs stay safe even untagged
   (top is then monotone for the whole execution). *)
let corpus =
  [
    ( "reset then refill vs thief",
      { Dc.owner = [ Dc.Push_bottom 1; Dc.Pop_bottom; Dc.Push_bottom 2 ];
        thieves = [ [ Dc.Pop_top ] ] },
      `Resets );
    ( "reset then refill vs two thieves",
      { Dc.owner = [ Dc.Push_bottom 1; Dc.Pop_bottom; Dc.Push_bottom 2; Dc.Push_bottom 3 ];
        thieves = [ [ Dc.Pop_top ]; [ Dc.Pop_top ] ] },
      `Resets );
    ( "double drain",
      { Dc.owner =
          [ Dc.Push_bottom 1; Dc.Push_bottom 2; Dc.Pop_bottom; Dc.Pop_bottom; Dc.Push_bottom 3 ];
        thieves = [ [ Dc.Pop_top ] ] },
      `Resets );
    ( "greedy thief over a refill",
      { Dc.owner = [ Dc.Push_bottom 1; Dc.Pop_bottom; Dc.Push_bottom 2; Dc.Pop_bottom ];
        thieves = [ [ Dc.Pop_top; Dc.Pop_top ] ] },
      `Resets );
    ( "no-reset control: two pushes, greedy thief",
      { Dc.owner = [ Dc.Push_bottom 1; Dc.Push_bottom 2 ];
        thieves = [ [ Dc.Pop_top; Dc.Pop_top ] ] },
      `No_reset );
    ( "no-reset control: push storm vs two thieves",
      { Dc.owner = [ Dc.Push_bottom 1; Dc.Push_bottom 2; Dc.Push_bottom 3; Dc.Push_bottom 4 ];
        thieves = [ [ Dc.Pop_top ]; [ Dc.Pop_top ] ] },
      `No_reset );
  ]

let corpus_safe_at_full_width () =
  List.iter (fun (name, program, _) -> verified name (Dc.explore program)) corpus

let corpus_untagged_aba () =
  List.iter
    (fun (name, program, resets) ->
      let r = Dc.explore ~tag_width:0 program in
      match resets with
      | `Resets ->
          Alcotest.(check bool)
            (name ^ ": ABA violation reproduced without the tag")
            true
            (violated r)
      | `No_reset ->
          Alcotest.(check (list string))
            (name ^ ": still safe without the tag (no owner reset)")
            [] (Dc.violations r))
    corpus

(* --- wsm: the production multiplicity deque (Wsm_deque_checked) ------ *)

let wsm_verified name (r : Dc.wsm_report) =
  Alcotest.(check (list string)) (name ^ ": no violations") [] r.run.violations;
  Alcotest.(check bool) (name ^ ": explored states") true (r.run.states_explored > 0);
  Alcotest.(check bool) (name ^ ": complete executions") true (r.run.complete_executions > 0)

(* The headline property: the owner/thief race MUST exhibit multiplicity
   in some interleaving (two thieves reading the same [con] before either
   blind store lands), the harness must see and count it, and nothing
   beyond that relaxation may occur — nothing lost, nothing invented,
   serial executions exact against the LIFO oracle. *)
let wsm_thief_multiplicity () =
  let r = Dc.explore_wsm Dc.wsm_thief in
  wsm_verified "wsm thief" r;
  Alcotest.(check bool) "serial executions checked" true (r.serial_executions > 0);
  Alcotest.(check bool) "multiplicity observed" true (r.max_duplicates >= 1)

(* Board-slot reuse across the production 8-slot ring: publishes wrapping
   the ring while a thief invocation straddles a slot overwrite stay safe
   (publish requires a drained window, so a stale slot read cannot be
   confused for a live item). *)
let wsm_reuse_safe () = wsm_verified "wsm reuse" (Dc.explore_wsm Dc.wsm_reuse)

(* The same wrap with two pushes before each pair of pops: the program
   in which a publish onto an undrained window breaks serial LIFO. *)
let wsm_reuse_pending_safe () =
  let r = Dc.explore_wsm Dc.wsm_reuse_pending in
  wsm_verified "wsm reuse pending" r;
  Alcotest.(check bool) "serial executions checked" true (r.serial_executions > 0)

let wsm_owner_only_fully_serial () =
  let r =
    Dc.explore_wsm
      {
        Dc.owner = [ Dc.Push_bottom 1; Dc.Push_bottom 2; Dc.Pop_bottom; Dc.Pop_bottom; Dc.Pop_bottom ];
        thieves = [];
      }
  in
  wsm_verified "wsm owner only" r;
  Alcotest.(check int) "every execution is serial" r.run.complete_executions r.serial_executions;
  Alcotest.(check int) "no duplicates without thieves" 0 r.max_duplicates

let wsm_thief_on_empty () =
  (* A lone popTop on an empty deque: NIL must be legal (the window is
     empty at every instant of the invocation). *)
  wsm_verified "wsm thief on empty" (Dc.explore_wsm { Dc.owner = []; thieves = [ [ Dc.Pop_top ] ] })

let wsm_rejects_owner_op_in_thief () =
  Alcotest.check_raises "thief pushes"
    (Invalid_argument "Deque_checks: thief may only popTop, got pushBottom(1)") (fun () ->
      ignore (Dc.explore_wsm { Dc.owner = []; thieves = [ [ Dc.Push_bottom 1 ] ] }))

let wsm_rejects_duplicate_push () =
  Alcotest.check_raises "duplicate pushed value"
    (Invalid_argument "Deque_checks: pushed values must be distinct") (fun () ->
      ignore (Dc.explore_wsm { Dc.owner = [ Dc.Push_bottom 1; Dc.Push_bottom 1 ]; thieves = [] }))

(* --- Sched_explorer over real code ------------------------------------ *)

module E = Sched_explorer
module SA = Sched_atomic

(* Two threads add 1 to one counter; [body c] is one increment.  The
   check reads the final count. *)
let two_increments body =
  E.explore (fun () ->
      let c = SA.make 0 in
      E.spawn (fun () -> body c);
      E.spawn (fun () -> body c);
      {
        E.ghost = (fun () -> []);
        observe = (fun _ -> []);
        check = (fun () -> if SA.get c = 2 then [] else [ "lost update" ]);
      })

let explorer_finds_lost_update () =
  let r = two_increments (fun c -> SA.set c (SA.get c + 1)) in
  Alcotest.(check (list string)) "get-then-set loses an update" [ "lost update" ] r.E.violations

let explorer_verifies_cas_loop () =
  let rec incr c =
    let v = SA.get c in
    if not (SA.compare_and_set c v (v + 1)) then incr c
  in
  let r = two_increments incr in
  Alcotest.(check (list string)) "CAS loop verified" [] r.E.violations;
  Alcotest.(check bool) "interleavings explored" true (r.E.complete_executions > 1)

(* A thread spinning on a cell no one writes never finishes: the step
   bound must report it instead of hanging. *)
let explorer_bounds_a_spinner () =
  let r =
    E.explore (fun () ->
        let c = SA.make false in
        E.spawn (fun () -> while not (SA.get c) do () done);
        { E.ghost = (fun () -> []); observe = (fun _ -> []); check = (fun () -> []) })
  in
  Alcotest.(check (list string)) "step bound reported" [ "step bound 200 reached" ] r.E.violations

(* Two same-role threads each make a cell at the same history and use
   it: both cells get one location id, so the explorer must report the
   run rather than prune states it cannot tell apart. *)
let explorer_rejects_shared_location () =
  let r =
    E.explore (fun () ->
        for _ = 1 to 2 do
          E.spawn ~role:1 (fun () -> SA.set (SA.make 0) 1)
        done;
        { E.ghost = (fun () -> []); observe = (fun _ -> []); check = (fun () -> []) })
  in
  Alcotest.(check (list string))
    "shared location reported"
    [ "a thread raised Failure(\"Sched_atomic: two cells made at one history are both accessed\")" ]
    r.E.violations

(* --- blocking: the Mutex and Condition substitutes ------------------- *)

module SM = Sched_mutex
module SC = Sched_condition

(* [setup counted] makes the cells, spawns the threads (a body wrapped
   in [counted] counts itself finished when it returns) and returns the
   check of a final state, given the finished count. *)
let blocking setup =
  E.explore (fun () ->
      let finished = ref 0 in
      let check = setup (fun body () -> body (); incr finished) in
      { E.ghost = (fun () -> [ !finished ]); observe = (fun _ -> []); check = (fun () -> check !finished) })

(* The get-then-set increment of [explorer_finds_lost_update], under a
   mutex: no update is lost. *)
let mutex_excludes () =
  let r =
    blocking (fun counted ->
        let m = SM.create () and c = SA.make 0 in
        for _ = 1 to 2 do
          E.spawn
            (counted (fun () ->
                 SM.lock m;
                 SA.set c (SA.get c + 1);
                 SM.unlock m))
        done;
        fun _ -> if SA.peek c = 2 then [] else [ "lost update" ])
  in
  Alcotest.(check (list string)) "verified" [] r.E.violations;
  Alcotest.(check bool) "interleavings explored" true (r.E.complete_executions > 1)

(* Two threads take two mutexes in opposite orders: some run ends with
   both blocked, and the explorer hands that state to [check]. *)
let mutex_deadlock_found () =
  let r =
    blocking (fun counted ->
        let a = SM.create () and b = SM.create () in
        let both x y () =
          SM.lock x;
          SM.lock y;
          SM.unlock y;
          SM.unlock x
        in
        E.spawn (counted (both a b));
        E.spawn (counted (both b a));
        fun finished -> if finished = 2 then [] else [ Printf.sprintf "%d blocked" (2 - finished) ])
  in
  Alcotest.(check (list string)) "deadlock reported" [ "2 blocked" ] r.E.violations

(* Two waiters enter the wait set (counted in [entered] under the
   mutex) before the waker, which waits for both, signals or
   broadcasts: a signal wakes exactly one of them, a broadcast both. *)
let condition_wakes ~broadcast () =
  let r =
    blocking (fun counted ->
        let m = SM.create () and c = SC.create () and entered = SA.make 0 in
        for _ = 1 to 2 do
          E.spawn ~role:1
            (counted (fun () ->
                 SM.lock m;
                 SA.incr entered;
                 SC.wait c m;
                 SM.unlock m))
        done;
        E.spawn (fun () ->
            ignore (SA.update_when entered (fun n -> n = 2) Fun.id);
            SM.lock m;
            (if broadcast then SC.broadcast else SC.signal) c;
            SM.unlock m);
        fun finished -> [ Printf.sprintf "%d woken" finished ])
  in
  Alcotest.(check (list string))
    "woken" [ (if broadcast then "2 woken" else "1 woken") ] r.E.violations

(* A signal with nobody in the wait set is lost: the waiter that enters
   after it stays blocked. *)
let condition_signal_lost () =
  let r =
    blocking (fun counted ->
        let m = SM.create () and c = SC.create () in
        E.spawn
          (counted (fun () ->
               SM.lock m;
               SC.wait c m;
               SM.unlock m));
        E.spawn (fun () ->
            SM.lock m;
            SC.signal c;
            SM.unlock m);
        fun finished -> if finished = 1 then [] else [ "waiter blocked" ])
  in
  Alcotest.(check (list string)) "lost signal found" [ "waiter blocked" ] r.E.violations

let blocking_outside_a_run () =
  SA.reset ();
  let m = SM.create () in
  SM.lock m;
  Alcotest.check_raises "second lock" (Failure "Sched_atomic: a thread would block outside a run")
    (fun () -> SM.lock m);
  SM.unlock m;
  Alcotest.check_raises "unlock unlocked" (Failure "Sched_mutex.unlock: not locked") (fun () ->
      SM.unlock m)

(* The production Parking (parking.ml) through its generated checked
   copy: no execution ends with a waiter blocked while its [ready]
   holds, and some execution has a waiter really wait. *)
let parking_verified () =
  List.iter
    (fun (wake, k) ->
      let r = Parking_checks.explore wake k in
      let name = Printf.sprintf "%s k=%d" (Parking_checks.wake_name wake) k in
      Alcotest.(check (list string)) (name ^ ": no violations") [] r.run.E.violations;
      Alcotest.(check bool) (name ^ ": a waiter waited") true (r.waited > 0))
    Parking_checks.[ (One, 1); (One, 2); (All, 1); (All, 2); (All, 3) ]

let parking_rejects_zero_waiters () =
  Alcotest.check_raises "k=0 rejected"
    (Invalid_argument "Parking_checks.explore: need at least one waiter") (fun () ->
      ignore (Parking_checks.explore All 0))

(* The production promise (fiber.ml) and future cell (future_impl.ml),
   run through their generated checked copies: every interleaving of k
   waiters gives each the value exactly once and leaves none parked, and
   both paths of each race are reached ([Promise_checks] lists an
   unreached path as a violation). *)
let cell_verified name check () =
  List.iter
    (fun k ->
      let r = check k in
      let name = Printf.sprintf "%s k=%d" name k in
      Alcotest.(check (list string)) (name ^ ": no violations") [] r.Promise_checks.run.E.violations;
      List.iter
        (fun (path, n) -> Alcotest.(check bool) (name ^ ": " ^ path ^ " reached") true (n > 0))
        r.Promise_checks.paths)
    [ 1; 2; 3 ]

let fiber_await_rejects_zero_awaiters () =
  Alcotest.check_raises "k=0 rejected"
    (Invalid_argument "Promise_checks.fiber_await: need at least one awaiter") (fun () ->
      ignore (Promise_checks.fiber_await 0))

let future_cell_rejects_zero_forcers () =
  Alcotest.check_raises "k=0 rejected"
    (Invalid_argument "Promise_checks.future_cell: need at least one forcer") (fun () ->
      ignore (Promise_checks.future_cell 0))

(* --- the checked copy run serially --------------------------------- *)

module Bt = Abp_deque.Bounded_tag

(* [f ()] at each tag width of the age substitute, then the width it had. *)
let at_widths widths f =
  let saved = !Age_checked.width in
  Fun.protect
    ~finally:(fun () -> Age_checked.width := saved)
    (fun () ->
      List.iter
        (fun width ->
          Age_checked.width := width;
          f width)
        widths)

(* The generated copy, run outside the explorer (no access yields),
   against the serial oracle: its header's substitutions (a cell per
   array slot, the age substitute) keep Figure 5's serial behaviour at
   every tag width, on both copies of the pops.  Pops outnumber pushes,
   so the owner's reset path and its tag bump run often. *)
let checked_serial_differential () =
  let module D = Atomic_deque_checked in
  let module Ref = Abp_deque.Spec.Reference in
  at_widths [ 0; 1; 2; Bt.max_width ] (fun width ->
      Sched_atomic.reset ();
      let rng = Rng.create ~seed:91L () in
      let d = D.create ~capacity:128 () in
      let oracle = Ref.create () in
      let next = ref 0 in
      let label what = Printf.sprintf "width %d: %s" width what in
      let detailed = function
        | Abp_deque.Spec.Got v -> Some v
        | Empty -> None
        | Contended -> Alcotest.fail (label "a serial pop reported Contended")
      in
      for _ = 1 to 2000 do
        match Rng.int rng 6 with
        | 0 | 1 ->
            incr next;
            D.push_bottom d !next;
            Ref.push_bottom oracle !next
        | 2 -> Alcotest.(check (option int)) (label "pop_bottom") (Ref.pop_bottom oracle) (D.pop_bottom d)
        | 3 ->
            Alcotest.(check (option int))
              (label "pop_bottom_detailed") (Ref.pop_bottom oracle)
              (detailed (D.pop_bottom_detailed d))
        | 4 -> Alcotest.(check (option int)) (label "pop_top") (Ref.pop_top oracle) (D.pop_top d)
        | _ ->
            Alcotest.(check (option int))
              (label "pop_top_detailed") (Ref.pop_top oracle)
              (detailed (D.pop_top_detailed d))
      done;
      Alcotest.(check int) (label "final size") (Ref.size oracle) (D.size d);
      if width < Bt.max_width then
        Alcotest.(check bool) (label "tag below 2^width") true (D.tag_of d < 1 lsl width))

(* The generated Wsm copy, run outside the explorer, against the serial
   oracle on both pops: popBottom exact, popTop the true top or the NIL
   that private work allows.  Capacity 1 makes the private ring grow
   through the cell array, a path no explored program takes. *)
let wsm_checked_serial_differential () =
  let module W = Wsm_deque_checked in
  let module Ref = Abp_deque.Spec.Reference in
  Sched_atomic.reset ();
  let rng = Rng.create ~seed:92L () in
  let d = W.create ~capacity:1 () in
  let oracle = Ref.create () in
  let next = ref 0 and early = ref 0 in
  let detailed = function
    | Abp_deque.Spec.Got v -> Some v
    | Empty -> None
    | Contended -> Alcotest.fail "a serial pop reported Contended"
  in
  let top what got =
    match got with
    | Some _ -> Alcotest.(check (option int)) what (Ref.pop_top oracle) got
    | None -> if Ref.size oracle > 0 then incr early
  in
  for _ = 1 to 2000 do
    match Rng.int rng 6 with
    | 0 | 1 ->
        incr next;
        W.push_bottom d !next;
        Ref.push_bottom oracle !next
    | 2 -> Alcotest.(check (option int)) "pop_bottom" (Ref.pop_bottom oracle) (W.pop_bottom d)
    | 3 ->
        Alcotest.(check (option int))
          "pop_bottom_detailed" (Ref.pop_bottom oracle)
          (detailed (W.pop_bottom_detailed d))
    | 4 -> top "pop_top" (W.pop_top d)
    | _ -> top "pop_top_detailed" (detailed (W.pop_top_detailed d))
  done;
  Alcotest.(check int) "final size" (Ref.size oracle) (W.size d);
  Alcotest.(check bool) "the ring grew" true (Array.length d.priv > 1);
  Alcotest.(check bool) "early NIL exercised" true (!early > 0)

(* The age substitute: a bump clears top and steps the tag, which comes
   back to its start after 2^width bumps; at the default width it is the
   production [bump_tag]. *)
let age_checked_wraps_at_width () =
  let rec bump k a = if k = 0 then a else bump (k - 1) (Age_checked.bump_tag a) in
  at_widths [ 0; 1; 2; 3 ] (fun width ->
      let start = Age_checked.pack ~tag:0 ~top:5 in
      let once = Age_checked.bump_tag start in
      Alcotest.(check int) (Printf.sprintf "width %d: bump clears top" width) 0 (Age_checked.top once);
      Alcotest.(check int)
        (Printf.sprintf "width %d: one bump" width)
        (if width = 0 then 0 else 1)
        (Age_checked.tag once);
      Alcotest.(check int)
        (Printf.sprintf "width %d: 2^width bumps wrap" width)
        0
        (Age_checked.tag (bump (1 lsl width) start)));
  at_widths [ Bt.max_width ] (fun _ ->
      List.iter
        (fun tag ->
          let a = Age_checked.pack ~tag ~top:3 in
          Alcotest.(check int)
            (Printf.sprintf "tag %d: production bump" tag)
            (Abp_deque.Age.bump_tag a :> int)
            (Age_checked.bump_tag a :> int))
        [ 0; 1; 41; Abp_deque.Age.max_top ])

let rejects_tag_width_out_of_range () =
  List.iter
    (fun tag_width ->
      Alcotest.check_raises
        (Printf.sprintf "tag_width %d" tag_width)
        (Invalid_argument "Deque_checks: tag_width out of range")
        (fun () -> ignore (Dc.explore ~tag_width Dc.aba_scenario)))
    [ -1; Bt.max_width + 1 ]

let prop_random_programs_safe =
  QCheck2.Test.make ~name:"random programs meet relaxed semantics" ~count:25
    QCheck2.Gen.(triple (int_range 1 1000) (int_range 1 5) (int_range 0 2))
    (fun (seed, ops, thieves) ->
      let rng_state = Rng.create ~seed:(Int64.of_int seed) () in
      let program = Dc.random_program ~rng:(fun n -> Rng.int rng_state n) ~ops ~thieves in
      Dc.violations (Dc.explore program) = [])

let tests =
  [
    Alcotest.test_case "ABA scenario with tag" `Quick aba_with_tag_is_safe;
    Alcotest.test_case "ABA scenario without tag fails" `Quick aba_without_tag_fails;
    Alcotest.test_case "wraparound width 1 fails" `Quick wraparound_width1_fails;
    Alcotest.test_case "wraparound width 2 safe" `Quick wraparound_width2_safe;
    Alcotest.test_case "two thieves" `Quick two_thieves_safe;
    Alcotest.test_case "owner vs thief" `Quick owner_vs_thief_safe;
    Alcotest.test_case "thief popTop run vs owner reset" `Quick thief_run_vs_owner_reset_safe;
    Alcotest.test_case "empty program" `Quick empty_program;
    Alcotest.test_case "thief on empty deque" `Quick thief_on_empty_deque;
    Alcotest.test_case "rejects owner op in thief" `Quick rejects_owner_op_in_thief;
    Alcotest.test_case "three thieves" `Quick three_thieves_safe;
    Alcotest.test_case "owner drain vs two thieves" `Quick owner_drain_vs_two_thieves;
    Alcotest.test_case "corpus: safe at full tag width" `Quick corpus_safe_at_full_width;
    Alcotest.test_case "corpus: untagged ABA iff owner resets" `Quick corpus_untagged_aba;
    Alcotest.test_case "checked deque: serial differential at every tag width" `Quick
      checked_serial_differential;
    Alcotest.test_case "checked deque: age substitute wraps at its width" `Quick
      age_checked_wraps_at_width;
    Alcotest.test_case "rejects tag width out of range" `Quick rejects_tag_width_out_of_range;
    Alcotest.test_case "wsm checked deque: serial differential" `Quick
      wsm_checked_serial_differential;
    Alcotest.test_case "wsm: thief race exhibits bounded multiplicity" `Quick
      wsm_thief_multiplicity;
    Alcotest.test_case "wsm: board-slot reuse safe" `Quick wsm_reuse_safe;
    Alcotest.test_case "wsm: reuse with two pushes per round safe" `Quick wsm_reuse_pending_safe;
    Alcotest.test_case "wsm: owner-only program fully serial" `Quick wsm_owner_only_fully_serial;
    Alcotest.test_case "wsm: thief on empty deque" `Quick wsm_thief_on_empty;
    Alcotest.test_case "wsm: rejects owner op in thief" `Quick wsm_rejects_owner_op_in_thief;
    Alcotest.test_case "wsm: rejects duplicate pushed values" `Quick wsm_rejects_duplicate_push;
    Alcotest.test_case "explorer: get-then-set increment loses an update" `Quick
      explorer_finds_lost_update;
    Alcotest.test_case "explorer: CAS-loop increment verified" `Quick explorer_verifies_cas_loop;
    Alcotest.test_case "explorer: spinner hits the step bound" `Quick explorer_bounds_a_spinner;
    Alcotest.test_case "explorer: same-role cells sharing a location reported" `Quick
      explorer_rejects_shared_location;
    Alcotest.test_case "fiber_await: parked continuation resumed exactly once" `Quick
      (cell_verified "fiber_await" Promise_checks.fiber_await);
    Alcotest.test_case "fiber_await: rejects zero awaiters" `Quick
      fiber_await_rejects_zero_awaiters;
    Alcotest.test_case "future_cell: every forcer gets the value exactly once" `Quick
      (cell_verified "future_cell" Promise_checks.future_cell);
    Alcotest.test_case "future_cell: rejects zero forcers" `Quick
      future_cell_rejects_zero_forcers;
    Alcotest.test_case "explorer: mutex excludes" `Quick mutex_excludes;
    Alcotest.test_case "explorer: opposite lock orders deadlock" `Quick mutex_deadlock_found;
    Alcotest.test_case "explorer: signal wakes one waiter" `Quick
      (condition_wakes ~broadcast:false);
    Alcotest.test_case "explorer: broadcast wakes every waiter" `Quick
      (condition_wakes ~broadcast:true);
    Alcotest.test_case "explorer: a signal before the wait is lost" `Quick condition_signal_lost;
    Alcotest.test_case "blocking substitutes outside a run" `Quick blocking_outside_a_run;
    Alcotest.test_case "parking: no waiter blocked while ready holds" `Quick parking_verified;
    Alcotest.test_case "parking: rejects zero waiters" `Quick parking_rejects_zero_waiters;
    QCheck_alcotest.to_alcotest prop_random_programs_safe;
  ]
