(* Anatomy of the ABP deque: watch the age word evolve through the
   Figure 5 protocol, then let the model checker demonstrate that the tag
   field is load-bearing by removing it and exhibiting the ABA violation
   of Section 3.3.

   Run with: dune exec examples/deque_anatomy.exe *)

let show name (d : int Abp.Atomic_deque.t) =
  Format.printf "  %-26s bot=%d top=%d tag=%d size=%d@." name (Abp.Atomic_deque.bot_of d)
    (Abp.Atomic_deque.top_of d) (Abp.Atomic_deque.tag_of d) (Abp.Atomic_deque.size d)

let () =
  Format.printf "--- Figure 5 protocol, step by step ---@.";
  let d : int Abp.Atomic_deque.t = Abp.Atomic_deque.create ~capacity:16 () in
  show "fresh" d;
  Abp.Atomic_deque.push_bottom d 1;
  Abp.Atomic_deque.push_bottom d 2;
  Abp.Atomic_deque.push_bottom d 3;
  show "pushBottom x3" d;
  ignore (Abp.Atomic_deque.pop_top d);
  show "popTop (thief): top++" d;
  ignore (Abp.Atomic_deque.pop_bottom d);
  show "popBottom (owner): bot--" d;
  ignore (Abp.Atomic_deque.pop_bottom d);
  show "popBottom empties: tag++" d;

  Format.printf "@.--- Why the tag exists (model checker) ---@.";
  Format.printf "Scenario: owner drains and refills the deque while a thief sits@.";
  Format.printf "between its read of age and its cas (Section 3.3).@.@.";
  let with_tag = Abp.Deque_checks.explore Abp.Deque_checks.aba_scenario in
  Format.printf "with tag:    %a@." Abp_mcheck.Sched_explorer.pp_report with_tag;
  let without_tag = Abp.Deque_checks.explore ~tag_width:0 Abp.Deque_checks.aba_scenario in
  Format.printf "without tag: %a@." Abp_mcheck.Sched_explorer.pp_report without_tag;
  Format.printf "@.The checker exhausts every interleaving: with the tag the thief's@.";
  Format.printf "stale cas fails; without it a node is consumed twice and another lost.@."
