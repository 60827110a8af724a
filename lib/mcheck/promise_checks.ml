(* The production promise and future cell under Sched_explorer.  Both
   scenarios run their waiters under the real Fiber.run handler, whose
   [schedule] makes every resumption a new explorer thread. *)

module E = Sched_explorer
module Promise = Fiber_checked.Promise

type report = { run : E.report; paths : (string * int) list }

(* Per-run ghost state: the waiters that got the value, and the
   handler's suspensions and resumptions.  A waiter's body runs on one
   fiber whose continuation is one-shot, so it cannot get the value
   twice: [got = k] at the end means each got it exactly once.  The
   waiters are one role, so the counts do not say which. *)
type ledger = { mutable got : int; mutable parked : int; mutable resumed : int }

let waiter_role = 1
let ghost l () = [ l.got; l.parked; l.resumed ]

let waiter l body () =
  Fiber_checked.run
    {
      schedule = E.spawn;
      on_suspend = (fun () -> l.parked <- l.parked + 1);
      on_resume = (fun () -> l.resumed <- l.resumed + 1);
    }
    body

(* Every waiter got the value, and none is left parked. *)
let verdict who k l =
  (if l.got = k then [] else [ Printf.sprintf "%d of %d %ss got the value" l.got k who ])
  @ if l.parked = l.resumed then [] else [ Printf.sprintf "%d suspensions but %d resumes" l.parked l.resumed ]

(* [scenario l] makes the cells and starts the threads; it returns the
   check of a complete execution: the paths it took and the violations
   beyond [verdict].  Each path must be taken by some execution. *)
let check name who k paths scenario =
  if k < 1 then invalid_arg (Printf.sprintf "Promise_checks.%s: need at least one %s" name who);
  let counts = List.map (fun p -> (p, ref 0)) paths in
  let run =
    E.explore (fun () ->
        let l = { got = 0; parked = 0; resumed = 0 } in
        let finish = scenario l in
        let check () =
          let taken, bad = finish () in
          List.iter (fun p -> incr (List.assoc p counts)) taken;
          bad @ verdict who k l
        in
        { E.ghost = ghost l; observe = (fun _ -> []); check })
  in
  let paths = List.map (fun (p, n) -> (p, !n)) counts in
  let missed = List.filter_map (fun (p, n) -> if n = 0 then Some (p ^ " never reached") else None) paths in
  { run = { run with violations = run.violations @ missed }; paths }

let fiber_await k =
  check "fiber_await" "awaiter" k [ "immediate"; "scheduled" ] (fun l ->
      let p = Promise.create () in
      E.spawn (fun () -> Promise.fulfil p ());
      for _ = 1 to k do
        E.spawn ~role:waiter_role (waiter l (fun () -> Promise.await p; l.got <- l.got + 1))
      done;
      fun () ->
        ( (if l.parked < k then [ "immediate" ] else [])
          @ (if l.parked > 0 then [ "scheduled" ] else []),
          [] ))

let future_cell k =
  check "future_cell" "forcer" k [ "direct"; "via promise" ] (fun l ->
      let fut = Future_checked.spawn_on () (fun () -> 42) in
      for _ = 1 to k do
        E.spawn ~role:waiter_role
          (waiter l (fun () -> if Future_checked.force fut = 42 then l.got <- l.got + 1))
      done;
      fun () ->
        match Sched_atomic.get fut.cell with
        | Value 42 -> ([ "direct" ], [])
        | Waited p when Promise.peek p = Some (Ok 42) -> ([ "via promise" ], [])
        | _ -> ([], [ "the value was not published" ]))

let pp_report ppf r =
  List.iter (fun (p, n) -> Fmt.pf ppf "%s %d  " p n) r.paths;
  E.pp_report ppf r.run
