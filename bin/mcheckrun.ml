(* mcheckrun: exhaustively model-check the ABP deque scenarios at a chosen
   tag width.

   Examples:
     mcheckrun                       # all scenarios, full tag
     mcheckrun --scenario aba --tag-width 0    # exhibit the ABA bug *)

open Cmdliner

let scenarios =
  [
    ("aba", Abp.Mcheck_props.aba_scenario);
    ("wraparound", Abp.Mcheck_props.wraparound_scenario);
    ("two-thieves", Abp.Mcheck_props.two_thieves);
    ("owner-vs-thief", Abp.Mcheck_props.owner_vs_thief_interleave);
  ]

(* The fiber promise protocol is a different machine from the deque
   explorer (awaiters/fulfiller instead of owner/thieves), so the
   [fiber_await] scenario gets its own dispatch (as does [future_cell],
   below): exhaustive exactly-once-resumption check at 1..3 racing
   awaiters. *)
let run_fiber_await () =
  let any_violation = ref false in
  List.iter
    (fun k ->
      let r = Abp.Fiber_model.explore ~awaiters:k in
      Format.printf "%-16s (%d awaiters + 1 fulfiller): %a@." "fiber_await" k
        Abp.Fiber_model.pp_report r;
      if r.Abp.Fiber_model.violations <> [] then any_violation := true;
      (* At >= 2 awaiters both resume paths must be reachable. *)
      if k >= 2 && (r.Abp.Fiber_model.immediate_resumes = 0 || r.Abp.Fiber_model.scheduled_resumes = 0)
      then begin
        Format.printf "fiber_await: race coverage incomplete at %d awaiters@." k;
        any_violation := true
      end)
    [ 1; 2; 3 ];
  !any_violation

(* The lean future's cell protocol ([future_cell]): one executor
   publishes while 1..3 forcers race to install the promise; both the
   direct-value and the installed-promise paths must be reachable. *)
let run_future_cell () =
  let any_violation = ref false in
  List.iter
    (fun k ->
      let r = Abp.Future_model.explore ~forcers:k in
      Format.printf "%-16s (%d forcers + 1 executor): %a@." "future_cell" k
        Abp.Future_model.pp_report r;
      if r.Abp.Future_model.violations <> [] then any_violation := true;
      if r.Abp.Future_model.direct_gets = 0 || r.Abp.Future_model.promise_gets = 0 then begin
        Format.printf "future_cell: path coverage incomplete at %d forcers@." k;
        any_violation := true
      end)
    [ 1; 2; 3 ];
  !any_violation

let run scenario tag_width =
  let deque_chosen =
    if scenario = "all" then scenarios
    else if scenario = "fiber_await" || scenario = "future_cell" then []
    else
      match List.assoc_opt scenario scenarios with
      | Some p -> [ (scenario, p) ]
      | None -> raise (Invalid_argument ("unknown scenario: " ^ scenario))
  in
  let any_violation = ref false in
  List.iter
    (fun (name, program) ->
      let report = Abp.Explorer.explore ~tag_width program in
      Format.printf "%-16s (%d ops, tag width %d): %a@." name
        (Abp.Explorer.program_total_ops program)
        tag_width Abp.Explorer.pp_report report;
      if report.Abp.Explorer.violations <> [] then any_violation := true)
    deque_chosen;
  if scenario = "all" || scenario = "fiber_await" then
    if run_fiber_await () then any_violation := true;
  if scenario = "all" || scenario = "future_cell" then
    if run_future_cell () then any_violation := true;
  if !any_violation then exit 2

let cmd =
  let scenario =
    Arg.(
      value
      & opt string "all"
      & info [ "scenario" ] ~doc:"all|aba|wraparound|two-thieves|owner-vs-thief|fiber_await|future_cell")
  in
  let tag_width =
    Arg.(
      value
      & opt int Abp.Bounded_tag.max_width
      & info [ "tag-width" ] ~doc:"age-tag width in bits (0 disables the tag)")
  in
  Cmd.v
    (Cmd.info "mcheckrun" ~doc:"Exhaustively check the ABP deque's relaxed semantics")
    Term.(const run $ scenario $ tag_width)

let () = exit (Cmd.eval cmd)
