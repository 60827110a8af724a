(* The production Parking under Sched_explorer: waiters that take or
   park against one waker that publishes and then wakes. *)

module E = Sched_explorer
module A = Sched_atomic
module P = Parking_checked

type wake = One | All
type report = { run : E.report; waited : int }

let wake_name = function One -> "wake_one" | All -> "wake_all"
let waiter_role = 1

let explore wake k =
  if k < 1 then invalid_arg "Parking_checks.explore: need at least one waiter";
  let waited = ref 0 in
  let run =
    E.explore (fun () ->
        let t = P.create () in
        let items = A.make 0 in
        (* Ghost: the waiters done, and whether one has waited. *)
        let finished = ref 0 and parked = ref false in
        let ready () = A.get items > 0 in
        let take, publish =
          match wake with
          | One ->
              ( (fun () ->
                  let n = A.get items in
                  n > 0 && A.compare_and_set items n (n - 1)),
                fun () ->
                  for _ = 1 to k do
                    A.incr items;
                    P.wake_one t
                  done )
          | All ->
              ( ready,
                fun () ->
                  A.set items 1;
                  P.wake_all t )
        in
        E.spawn publish;
        for _ = 1 to k do
          E.spawn ~role:waiter_role (fun () ->
              while not (take ()) do
                P.park t ~ready ~on_wait:(fun () -> parked := true)
              done;
              incr finished)
        done;
        let check () =
          if !parked then incr waited;
          if !finished = k then []
          else
            [
              Printf.sprintf "%d of %d waiters blocked%s" (k - !finished) k
                (if A.peek items > 0 then " while ready holds" else "");
            ]
        in
        {
          E.ghost = (fun () -> [ !finished; Bool.to_int !parked ]);
          observe = (fun _ -> []);
          check;
        })
  in
  let missed = if !waited = 0 then [ "no waiter ever waited" ] else [] in
  { run = { run with violations = run.violations @ missed }; waited = !waited }

let pp_report ppf r = Fmt.pf ppf "waited %d  %a" r.waited E.pp_report r.run
