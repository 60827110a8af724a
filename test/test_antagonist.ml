(* The pool next to background load.  Two [Antagonist] spinners take
   processor time the pool cannot see, so P̄ < P: the regime of the
   paper's Section 4.4, where a thief that fails a steal must give its
   processor back (Yield_local: sched_yield) or burn the quantum of a
   preempted peer that holds work (No_yield).  Either way the answer
   must be right, under every deque.  CI runs this suite pinned to one
   CPU, where sched_yield really hands the CPU to a runnable peer. *)

module Pool = Abp_hood.Pool
module Par = Abp_hood.Par
module Counters = Abp_trace.Counters
module Antagonist = Abp_mp.Antagonist

let rec fib_seq n = if n < 2 then n else fib_seq (n - 1) + fib_seq (n - 2)

let yields pool = Counters.get (Counters.sum (Pool.counters pool)) Counters.yields

let fib_next_to_spinners yield_kind () =
  let n = 20 in
  List.iter
    (fun (name, deque_impl) ->
      let antag = Antagonist.start ~spinners:2 in
      let pool = Pool.create ~processes:4 ~deque_impl ~yield_kind () in
      Fun.protect
        ~finally:(fun () ->
          Pool.shutdown pool;
          Antagonist.stop antag)
        (fun () ->
          let got = Pool.run pool (fun () -> Par.fib n) in
          Alcotest.(check int) (name ^ " fib") (fib_seq n) got;
          match yield_kind with
          | Pool.No_yield -> Alcotest.(check int) (name ^ " no yields") 0 (yields pool)
          | _ ->
              (* Idle thieves yield before they park; wait for one to
                 get a timeslice rather than race the shutdown. *)
              Alcotest.(check bool) (name ^ " yields > 0") true
                (Test_util.wait_until (fun () -> yields pool > 0))))
    [ ("abp", Pool.Abp); ("circular", Pool.Circular); ("locked", Pool.Locked) ]

let tests =
  [
    Alcotest.test_case "P=4 fib next to 2 spinners, No_yield" `Quick
      (fib_next_to_spinners Pool.No_yield);
    Alcotest.test_case "P=4 fib next to 2 spinners, Yield_local" `Quick
      (fib_next_to_spinners Pool.Yield_local);
  ]
