(* E14: deque correctness (the TR-99-11 substitute) — exhaustive
   interleaving checks of the production deque's relaxed semantics, the
   ABA counterexample without the tag, and the bounded-tags wraparound
   condition.  Each program runs on the detailed pops and on the option
   pops; the states and executions are the detailed run's. *)

module Dc = Abp.Deque_checks

let run () =
  Common.section "E14" "Model checking the ABP deque (relaxed semantics, Sec 3.2-3.3)";
  let rows = ref [] in
  let check name tag_width program expect_violation =
    let r = Dc.explore ~tag_width program in
    let violations = List.length (Dc.violations r) in
    rows :=
      [
        name;
        Common.i tag_width;
        Common.i r.detailed.states_explored;
        Common.i r.detailed.complete_executions;
        Common.i violations;
        (if (violations > 0) = expect_violation then "as expected" else "UNEXPECTED");
      ]
      :: !rows
  in
  let full = Abp.Bounded_tag.max_width in
  check "aba" full Dc.aba_scenario false;
  check "aba (no tag)" 0 Dc.aba_scenario true;
  check "wraparound" full Dc.wraparound_scenario false;
  check "wraparound (1-bit tag)" 1 Dc.wraparound_scenario true;
  check "wraparound (2-bit tag)" 2 Dc.wraparound_scenario false;
  check "two thieves" full Dc.two_thieves false;
  check "owner vs thief" full Dc.owner_vs_thief_interleave false;
  (* A batch of random programs, all expected clean at full width. *)
  let rng = Abp.Rng.create ~seed:51L () in
  for idx = 1 to 6 do
    let program = Dc.random_program ~rng:(fun n -> Abp.Rng.int rng n) ~ops:5 ~thieves:2 in
    check (Printf.sprintf "random-%d" idx) full program false
  done;
  Common.table
    ~header:[ "scenario"; "tag bits"; "states"; "executions"; "violations"; "verdict" ]
    (List.rev !rows);
  Common.note "with the tag every interleaving meets the relaxed semantics; removing it";
  Common.note "reproduces the Section 3.3 ABA failure (a node consumed twice, another lost)"
