(* Helpers shared by the test suites. *)

(* Spin (politely) until [pred] holds; false on timeout.  Generous
   timeout: the CI box may have one CPU, so a woken domain may wait a
   full timeslice before running. *)
let wait_until ?(timeout = 30.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    pred ()
    ||
    if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      Domain.cpu_relax ();
      go ()
    end
  in
  go ()
