(* E14: deque correctness (the TR-99-11 substitute) — exhaustive
   interleaving checks of the production ABP deque's relaxed semantics,
   the ABA counterexample without the tag, and the bounded-tags
   wraparound condition; then the Chase-Lev deque's grow, shrink and
   last-element programs, and the multiplicity deque's programs on its
   own contract.  Each program runs once, on the one implementation of
   each pop.  Exits 1 if any row is unexpected. *)

module Dc = Abp.Deque_checks

let verdict ok = if ok then "as expected" else "UNEXPECTED"

let run () =
  Common.section "E14" "Model checking the ABP, Chase-Lev and multiplicity deques (relaxed semantics, Sec 3.2-3.3)";
  let rows = ref [] in
  let row name tag_bits (r : Abp_mcheck.Sched_explorer.report) expect_violation =
    let violations = List.length r.violations in
    rows :=
      [
        name;
        tag_bits;
        Common.i r.states_explored;
        Common.i r.complete_executions;
        Common.i violations;
        verdict ((violations > 0) = expect_violation);
      ]
      :: !rows
  in
  let check name tag_width program expect_violation =
    row name (Common.i tag_width) (Dc.explore ~tag_width program) expect_violation
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
  List.iter
    (fun (name, program) -> row ("circular: " ^ name) "-" (Dc.explore_circular program) false)
    Dc.circular_programs;
  Common.table
    ~header:[ "scenario"; "tag bits"; "states"; "executions"; "violations"; "verdict" ]
    (List.rev !rows);
  Common.note "with the tag every interleaving meets the relaxed semantics; removing it";
  Common.note "reproduces the Section 3.3 ABA failure (a node consumed twice, another lost);";
  Common.note "the Chase-Lev rows (no tag) start at capacity 2, so their pushes grow the buffer";
  (* The multiplicity deque: clean, and the thief race must show a
     duplicate, or the harness could not see the relaxation. *)
  let wsm name program min_duplicates =
    let r = Dc.explore_wsm program in
    [
      name;
      Common.i r.run.states_explored;
      Common.i r.run.complete_executions;
      Common.i r.serial_executions;
      Common.i r.max_duplicates;
      Common.i (List.length r.run.violations);
      verdict (r.run.violations = [] && r.max_duplicates >= min_duplicates);
    ]
  in
  let wsm_rows =
    [
      wsm "wsm thief" Dc.wsm_thief 1;
      wsm "wsm reuse" Dc.wsm_reuse 0;
      wsm "wsm reuse pending" Dc.wsm_reuse_pending 0;
    ]
  in
  Common.table
    ~header:[ "wsm scenario"; "states"; "executions"; "serial"; "max dup"; "violations"; "verdict" ]
    wsm_rows;
  Common.note "the multiplicity deque loses nothing; racing thieves may return one value twice";
  if List.exists (List.mem "UNEXPECTED") (List.rev_append !rows wsm_rows) then begin
    prerr_endline "E14 FAILED: a row reads UNEXPECTED";
    exit 1
  end
