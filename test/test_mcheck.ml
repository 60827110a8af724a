(* Model-checker tests (experiment E14 at test scale): the ABP deque meets
   the relaxed semantics under exhaustive interleaving, the tag field is
   load-bearing (removing it yields the ABA violation), and tag widths obey
   the bounded-tags safety condition. *)

open Abp_mcheck
module Sd = Abp_deque.Step_deque
module Rng = Abp_stats.Rng

let verified name report =
  Alcotest.(check (list string)) (name ^ ": no violations") [] report.Explorer.violations;
  Alcotest.(check bool) (name ^ ": explored states") true (report.Explorer.states_explored > 0);
  Alcotest.(check bool)
    (name ^ ": complete executions")
    true
    (report.Explorer.complete_executions > 0)

let aba_with_tag_is_safe () = verified "aba+tag" (Explorer.explore Props.aba_scenario)

let aba_without_tag_fails () =
  let r = Explorer.explore ~tag_width:0 Props.aba_scenario in
  Alcotest.(check bool)
    ("found the ABA violation: " ^ String.concat "; " r.Explorer.violations)
    true
    (r.Explorer.violations <> [])

let wraparound_width1_fails () =
  let r = Explorer.explore ~tag_width:1 Props.wraparound_scenario in
  Alcotest.(check bool) "width 1 aliases after 2 resets" true (r.Explorer.violations <> [])

let wraparound_width2_safe () =
  verified "wraparound width 2" (Explorer.explore ~tag_width:2 Props.wraparound_scenario)

let two_thieves_safe () = verified "two thieves" (Explorer.explore Props.two_thieves)

let owner_vs_thief_safe () =
  verified "owner vs thief" (Explorer.explore Props.owner_vs_thief_interleave)

(* A pop_top_n batch linearizes as consecutive single popTops
   (Spec.S.pop_top_n); exhaustively interleaving that shape against an
   owner that refills/drains — including its reset/retag path — must
   stay conservation-safe. *)
let batched_thief_safe () = verified "batched thief" (Explorer.explore Props.batched_thief)

let empty_program () =
  let r = Explorer.explore { Explorer.owner = []; thieves = [] } in
  Alcotest.(check int) "one completion" 1 r.Explorer.complete_executions;
  Alcotest.(check (list string)) "no violations" [] r.Explorer.violations

let thief_on_empty_deque () =
  (* A lone popTop on an empty deque must return NIL legally. *)
  verified "thief on empty" (Explorer.explore { Explorer.owner = []; thieves = [ [ Sd.Pop_top ] ] })

let rejects_owner_op_in_thief () =
  Alcotest.check_raises "thief pushes"
    (Invalid_argument "Explorer: thief may only popTop, got pushBottom(1)") (fun () ->
      ignore (Explorer.explore { Explorer.owner = []; thieves = [ [ Sd.Push_bottom 1 ] ] }))

let three_thieves_safe () =
  (* Heavier contention: three thieves racing over two pushes.  Larger
     state space but still exhaustive. *)
  let program =
    { Explorer.owner = [ Sd.Push_bottom 1; Sd.Push_bottom 2 ];
      thieves = [ [ Sd.Pop_top ]; [ Sd.Pop_top ]; [ Sd.Pop_top ] ] }
  in
  let r = Explorer.explore program in
  Alcotest.(check (list string)) "no violations" [] r.Explorer.violations;
  Alcotest.(check bool) "big state space explored" true (r.Explorer.states_explored > 5_000)

let owner_drain_vs_two_thieves () =
  let program =
    { Explorer.owner = [ Sd.Push_bottom 1; Sd.Push_bottom 2; Sd.Pop_bottom; Sd.Pop_bottom ];
      thieves = [ [ Sd.Pop_top ]; [ Sd.Pop_top ] ] }
  in
  let r = Explorer.explore program in
  Alcotest.(check (list string)) "no violations" [] r.Explorer.violations

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
      { Explorer.owner = [ Sd.Push_bottom 1; Sd.Pop_bottom; Sd.Push_bottom 2 ];
        thieves = [ [ Sd.Pop_top ] ] },
      `Resets );
    ( "reset then refill vs two thieves",
      { Explorer.owner = [ Sd.Push_bottom 1; Sd.Pop_bottom; Sd.Push_bottom 2; Sd.Push_bottom 3 ];
        thieves = [ [ Sd.Pop_top ]; [ Sd.Pop_top ] ] },
      `Resets );
    ( "double drain",
      { Explorer.owner =
          [ Sd.Push_bottom 1; Sd.Push_bottom 2; Sd.Pop_bottom; Sd.Pop_bottom; Sd.Push_bottom 3 ];
        thieves = [ [ Sd.Pop_top ] ] },
      `Resets );
    ( "greedy thief over a refill",
      { Explorer.owner = [ Sd.Push_bottom 1; Sd.Pop_bottom; Sd.Push_bottom 2; Sd.Pop_bottom ];
        thieves = [ [ Sd.Pop_top; Sd.Pop_top ] ] },
      `Resets );
    ( "no-reset control: two pushes, greedy thief",
      { Explorer.owner = [ Sd.Push_bottom 1; Sd.Push_bottom 2 ];
        thieves = [ [ Sd.Pop_top; Sd.Pop_top ] ] },
      `No_reset );
    ( "no-reset control: push storm vs two thieves",
      { Explorer.owner = [ Sd.Push_bottom 1; Sd.Push_bottom 2; Sd.Push_bottom 3; Sd.Push_bottom 4 ];
        thieves = [ [ Sd.Pop_top ]; [ Sd.Pop_top ] ] },
      `No_reset );
  ]

let corpus_safe_at_full_width () =
  List.iter (fun (name, program, _) -> verified name (Explorer.explore program)) corpus

let corpus_untagged_aba () =
  List.iter
    (fun (name, program, resets) ->
      let r = Explorer.explore ~tag_width:0 program in
      match resets with
      | `Resets ->
          Alcotest.(check bool)
            (name ^ ": ABA violation reproduced without the tag")
            true
            (r.Explorer.violations <> [])
      | `No_reset ->
          Alcotest.(check (list string))
            (name ^ ": still safe without the tag (no owner reset)")
            [] r.Explorer.violations)
    corpus

(* --- wsm: the fence-free multiplicity deque (Wsm_explorer) ----------- *)

module Ws = Abp_deque.Wsm_step

let wsm_verified name (r : Wsm_explorer.report) =
  Alcotest.(check (list string)) (name ^ ": no violations") [] r.Wsm_explorer.violations;
  Alcotest.(check bool) (name ^ ": explored states") true (r.Wsm_explorer.states_explored > 0);
  Alcotest.(check bool)
    (name ^ ": complete executions")
    true
    (r.Wsm_explorer.complete_executions > 0)

(* The headline property: the owner/thief race MUST exhibit multiplicity
   in some interleaving (two thieves reading the same [con] before either
   blind store lands), the harness must see and count it, and nothing
   beyond that relaxation may occur — nothing lost, nothing invented,
   serial executions exact against the LIFO oracle. *)
let wsm_thief_multiplicity () =
  let r = Wsm_explorer.explore Props.wsm_thief in
  wsm_verified "wsm thief" r;
  Alcotest.(check bool) "serial executions checked" true (r.Wsm_explorer.serial_executions > 0);
  Alcotest.(check bool) "multiplicity observed" true (r.Wsm_explorer.max_duplicates >= 1)

(* Board-slot reuse across the 4-slot model ring: publishes wrapping the
   ring while a thief invocation straddles a slot overwrite stay safe
   (publish requires a drained window, so a stale slot read cannot be
   confused for a live item). *)
let wsm_reuse_safe () = wsm_verified "wsm reuse" (Wsm_explorer.explore Props.wsm_reuse)

let wsm_owner_only_fully_serial () =
  let r =
    Wsm_explorer.explore
      {
        Wsm_explorer.owner =
          [ Ws.Push_bottom 1; Ws.Push_bottom 2; Ws.Pop_bottom; Ws.Pop_bottom; Ws.Pop_bottom ];
        thieves = [];
      }
  in
  wsm_verified "wsm owner only" r;
  Alcotest.(check int) "every execution is serial" r.Wsm_explorer.complete_executions
    r.Wsm_explorer.serial_executions;
  Alcotest.(check int) "no duplicates without thieves" 0 r.Wsm_explorer.max_duplicates

let wsm_thief_on_empty () =
  (* A lone popTop on an empty deque: NIL must be legal (the window is
     empty at every instant of the invocation). *)
  wsm_verified "wsm thief on empty"
    (Wsm_explorer.explore { Wsm_explorer.owner = []; thieves = [ [ Ws.Pop_top ] ] })

let wsm_rejects_owner_op_in_thief () =
  Alcotest.check_raises "thief pushes"
    (Invalid_argument "Wsm_explorer: thief may only popTop, got pushBottom(1)") (fun () ->
      ignore (Wsm_explorer.explore { Wsm_explorer.owner = []; thieves = [ [ Ws.Push_bottom 1 ] ] }))

let wsm_rejects_duplicate_push () =
  Alcotest.check_raises "duplicate pushed value"
    (Invalid_argument "Wsm_explorer: pushed values must be distinct") (fun () ->
      ignore
        (Wsm_explorer.explore
           { Wsm_explorer.owner = [ Ws.Push_bottom 1; Ws.Push_bottom 1 ]; thieves = [] }))

(* Fiber promise protocol: every interleaving of k awaiters racing one
   fulfiller resumes each parked continuation exactly once — including
   the fulfil-races-await window (LOAD saw Pending, CAS-park races the
   fulfiller's CAS-to-Fulfilled).  At >= 2 awaiters both resume paths
   (immediate and scheduled) must be reachable, or the model is not
   actually exercising the race. *)
let fiber_await_exactly_once () =
  List.iter
    (fun k ->
      let name = Printf.sprintf "fiber_await k=%d" k in
      let r = Fiber_model.explore ~awaiters:k in
      Alcotest.(check (list string)) (name ^ ": no violations") [] r.Fiber_model.violations;
      Alcotest.(check bool) (name ^ ": states") true (r.Fiber_model.states_explored > 0);
      Alcotest.(check bool) (name ^ ": terminal states") true (r.Fiber_model.complete_executions > 0);
      if k >= 2 then begin
        Alcotest.(check bool)
          (name ^ ": immediate path reached")
          true
          (r.Fiber_model.immediate_resumes > 0);
        Alcotest.(check bool)
          (name ^ ": scheduled path reached")
          true
          (r.Fiber_model.scheduled_resumes > 0)
      end)
    [ 1; 2; 3 ]

let fiber_await_rejects_zero_awaiters () =
  Alcotest.check_raises "k=0 rejected"
    (Invalid_argument "Fiber_model.explore: need at least one awaiter") (fun () ->
      ignore (Fiber_model.explore ~awaiters:0))

(* Lean future cell: every interleaving of k forcers racing to install
   a promise while the executor publishes delivers the value to each
   forcer exactly once and parks none forever.  Both delivery paths
   (the executor's CAS wins and forcers read the cell; a forcer's
   install wins and the executor fulfils the promise) must be
   reachable, or the model is not exercising the race. *)
let future_cell_exactly_once () =
  List.iter
    (fun k ->
      let name = Printf.sprintf "future_cell k=%d" k in
      let r = Future_model.explore ~forcers:k in
      Alcotest.(check (list string)) (name ^ ": no violations") [] r.Future_model.violations;
      Alcotest.(check bool) (name ^ ": terminal states") true (r.Future_model.complete_executions > 0);
      Alcotest.(check bool) (name ^ ": direct path reached") true (r.Future_model.direct_gets > 0);
      Alcotest.(check bool) (name ^ ": promise path reached") true (r.Future_model.promise_gets > 0))
    [ 1; 2; 3 ]

let future_cell_rejects_zero_forcers () =
  Alcotest.check_raises "k=0 rejected"
    (Invalid_argument "Future_model.explore: need at least one forcer") (fun () ->
      ignore (Future_model.explore ~forcers:0))

let prop_random_programs_safe =
  QCheck2.Test.make ~name:"random programs meet relaxed semantics" ~count:25
    QCheck2.Gen.(triple (int_range 1 1000) (int_range 1 5) (int_range 0 2))
    (fun (seed, ops, thieves) ->
      let rng_state = Rng.create ~seed:(Int64.of_int seed) () in
      let program = Props.random_program ~rng:(fun n -> Rng.int rng_state n) ~ops ~thieves in
      let r = Explorer.explore program in
      r.Explorer.violations = [])

let tests =
  [
    Alcotest.test_case "ABA scenario with tag" `Quick aba_with_tag_is_safe;
    Alcotest.test_case "ABA scenario without tag fails" `Quick aba_without_tag_fails;
    Alcotest.test_case "wraparound width 1 fails" `Quick wraparound_width1_fails;
    Alcotest.test_case "wraparound width 2 safe" `Quick wraparound_width2_safe;
    Alcotest.test_case "two thieves" `Quick two_thieves_safe;
    Alcotest.test_case "owner vs thief" `Quick owner_vs_thief_safe;
    Alcotest.test_case "batched thief (pop_top_n as popTop sequence)" `Quick batched_thief_safe;
    Alcotest.test_case "empty program" `Quick empty_program;
    Alcotest.test_case "thief on empty deque" `Quick thief_on_empty_deque;
    Alcotest.test_case "rejects owner op in thief" `Quick rejects_owner_op_in_thief;
    Alcotest.test_case "three thieves" `Quick three_thieves_safe;
    Alcotest.test_case "owner drain vs two thieves" `Quick owner_drain_vs_two_thieves;
    Alcotest.test_case "corpus: safe at full tag width" `Quick corpus_safe_at_full_width;
    Alcotest.test_case "corpus: untagged ABA iff owner resets" `Quick corpus_untagged_aba;
    Alcotest.test_case "wsm: thief race exhibits bounded multiplicity" `Quick
      wsm_thief_multiplicity;
    Alcotest.test_case "wsm: board-slot reuse safe" `Quick wsm_reuse_safe;
    Alcotest.test_case "wsm: owner-only program fully serial" `Quick wsm_owner_only_fully_serial;
    Alcotest.test_case "wsm: thief on empty deque" `Quick wsm_thief_on_empty;
    Alcotest.test_case "wsm: rejects owner op in thief" `Quick wsm_rejects_owner_op_in_thief;
    Alcotest.test_case "wsm: rejects duplicate pushed values" `Quick wsm_rejects_duplicate_push;
    Alcotest.test_case "fiber_await: parked continuation resumed exactly once" `Quick
      fiber_await_exactly_once;
    Alcotest.test_case "fiber_await: rejects zero awaiters" `Quick
      fiber_await_rejects_zero_awaiters;
    Alcotest.test_case "future_cell: every forcer gets the value exactly once" `Quick
      future_cell_exactly_once;
    Alcotest.test_case "future_cell: rejects zero forcers" `Quick
      future_cell_rejects_zero_forcers;
    QCheck_alcotest.to_alcotest prop_random_programs_safe;
  ]
