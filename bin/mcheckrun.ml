(* mcheckrun: exhaustively model-check the production ABP deque's
   scenarios at a chosen tag width, the production Chase-Lev and
   multiplicity deques, the production fiber promise and future cell,
   and the production park/wake protocol.

   Examples:
     mcheckrun                                  # every scenario, full tag
     mcheckrun --scenario aba --tag-width 0     # exhibit the ABA bug
     mcheckrun --scenario circular              # Circular_deque, six programs
     mcheckrun --scenario future_cell           # Future's cell, 1..3 forcers
     mcheckrun --scenario parking               # Parking, up to 3 waiters *)

open Cmdliner
module M = Abp_mcheck

(* A scenario prints its report lines and returns [true] on a violation. *)
let deque program name tag_width =
  let r = M.Deque_checks.explore ~tag_width program in
  Format.printf "%-16s (%d ops, tag width %d): %a@." name
    (M.Deque_checks.program_total_ops program)
    tag_width M.Sched_explorer.pp_report r;
  r.violations <> []

(* The Chase-Lev deque has no tag either; one line per program. *)
let circular name _ =
  List.fold_left
    (fun bad (program_name, program) ->
      let r = M.Deque_checks.explore_circular program in
      Format.printf "%-16s %-22s (%d ops): %a@." name program_name
        (M.Deque_checks.program_total_ops program)
        M.Sched_explorer.pp_report r;
      bad || r.violations <> [])
    false M.Deque_checks.circular_programs

(* The multiplicity deque has no tag. *)
let wsm program name _ =
  let r = M.Deque_checks.explore_wsm program in
  Format.printf "%-16s (%d ops): %a@." name (M.Deque_checks.program_total_ops program)
    M.Deque_checks.pp_wsm_report r;
  r.run.violations <> []

(* The promise and the future cell ignore the tag width; each runs at
   1..3 waiters. *)
let cell check threads name _ =
  List.fold_left
    (fun bad k ->
      let r = check k in
      Format.printf "%-16s (%d %s): %a@." name k threads M.Promise_checks.pp_report r;
      bad || r.run.violations <> [])
    false [ 1; 2; 3 ]

(* Parking ignores the tag width.  [wake_one] stops at 2 waiters: its
   waker makes one round per waiter, and 3 waiters take the state space
   past memory. *)
let parking name _ =
  List.fold_left
    (fun bad (wake, k) ->
      let r = M.Parking_checks.explore wake k in
      Format.printf "%-16s (%s, %d waiters + 1 waker): %a@." name
        (M.Parking_checks.wake_name wake) k M.Parking_checks.pp_report r;
      bad || r.run.violations <> [])
    false
    M.Parking_checks.[ (One, 1); (One, 2); (All, 1); (All, 2); (All, 3) ]

let scenarios =
  [
    ("aba", deque M.Deque_checks.aba_scenario);
    ("wraparound", deque M.Deque_checks.wraparound_scenario);
    ("two-thieves", deque M.Deque_checks.two_thieves);
    ("owner-vs-thief", deque M.Deque_checks.owner_vs_thief_interleave);
    ("circular", circular);
    ("wsm-thief", wsm M.Deque_checks.wsm_thief);
    ("wsm-reuse", wsm M.Deque_checks.wsm_reuse);
    ("wsm-reuse-pending", wsm M.Deque_checks.wsm_reuse_pending);
    ("fiber_await", cell M.Promise_checks.fiber_await "awaiters + 1 fulfiller");
    ("future_cell", cell M.Promise_checks.future_cell "forcers + 1 executor");
    ("parking", parking);
  ]

let run chosen tag_width =
  let chosen = Option.fold ~none:scenarios ~some:(fun s -> [ s ]) chosen in
  let bad = List.fold_left (fun bad (name, check) -> check name tag_width || bad) false chosen in
  if bad then exit 2

let cmd =
  let scenario =
    let names = ("all", None) :: List.map (fun ((name, _) as s) -> (name, Some s)) scenarios in
    Arg.(
      value
      & opt (enum names) None
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            ("The scenario to check: " ^ Arg.doc_alts_enum names
           ^ ".  The deque scenarios run the production Atomic_deque, circular the \
              production Circular_deque, wsm-thief and \
              the wsm-reuse scenarios the production Wsm_deque; fiber_await and future_cell run the \
              production Fiber promise and Future cell; parking runs the production \
              Parking.  No $(docv) runs every scenario."))
  in
  let tag_width =
    let max = Abp.Bounded_tag.max_width in
    let parse s =
      match int_of_string_opt s with
      | Some w when w >= 0 && w <= max -> Ok w
      | _ -> Error (`Msg (Printf.sprintf "expected an integer in 0..%d, got %S" max s))
    in
    Arg.(
      value
      & opt (conv (parse, Format.pp_print_int)) max
      & info [ "tag-width" ] ~docv:"BITS"
          ~doc:
            "Age-tag width of the Atomic_deque scenarios, 0 (no tag) to the full width: \
             the width at which the checked copy of Atomic_deque wraps its tag.  The \
             Circular_deque, Wsm_deque, promise, future and parking scenarios ignore it.")
  in
  Cmd.v
    (Cmd.info "mcheckrun"
       ~exits:(Cmd.Exit.info 2 ~doc:"on a violation." :: Cmd.Exit.defaults)
       ~doc:
         "Exhaustively check the relaxed semantics of the ABP, Chase-Lev and multiplicity deques, and \
          the fiber promise, the future cell and the park/wake protocol")
    Term.(const run $ scenario $ tag_width)

let () = exit (Cmd.eval cmd)
