(* Effects-based suspendable tasks.

   The paper's Figure-3 loop rests on one premise: a processor never
   sits on a blocked thread — it yields or steals.  Yet a task that
   waits for a value (a future join, a downstream backend) has, until
   now, occupied its worker for the whole wait.  This module gives
   tasks a way out: [await] on a pending {!Promise.t} performs the
   [Await] effect, the handler installed around every pool task
   captures the (one-shot) continuation, parks it on the promise's
   waiter list with a lock-free CAS push, and simply returns — the
   worker falls straight back into the scheduling loop.  [fulfil]
   detaches the waiter list and hands each parked continuation to the
   scheduler as an ordinary task.

   The module is deliberately a leaf: it knows nothing about pools,
   deques or injectors.  The embedding runtime supplies a {!sched}
   record of callbacks (where to enqueue a ready continuation, what to
   count on suspend/resume) and wraps task bodies in {!run}.  This
   keeps the dependency arrow pointing the right way — the pool
   depends on fibers, not vice versa — and makes the suspension
   protocol testable in isolation.  The [fiber_await] mcheck scenario
   checks this very file over every interleaving: lib/mcheck builds a
   copy of it whose [Atomic] performs a scheduling effect at each
   access, so use only [Atomic.make], [get], [set], [exchange],
   [compare_and_set] and [fetch_and_add] here. *)

module P = struct
  type 'a state =
    | Fulfilled of 'a
    | Failed of exn * Printexc.raw_backtrace
    | Pending of (unit -> unit) list
        (* Parked waiters, most recent first.  Each entry *schedules*
           a resumption (it never runs the continuation on the
           fulfiller's stack unless the scheduler chooses to). *)

  type 'a t = 'a state Atomic.t

  let create () = Atomic.make (Pending [])

  let is_resolved p =
    match Atomic.get p with Pending _ -> false | _ -> true

  let peek p =
    match Atomic.get p with
    | Pending _ -> None
    | Fulfilled v -> Some (Ok v)
    | Failed (e, bt) -> Some (Error (e, bt))

  (* Resolve to a terminal state and wake the waiters.  The CAS is the
     linearization point: the thread that wins owns the detached
     waiter list and schedules each entry exactly once (waiters are
     stored newest-first; we reverse so resumptions are scheduled in
     park order). *)
  let resolve p (final : 'a state) =
    let rec loop () =
      match Atomic.get p with
      | Pending waiters as old ->
          if Atomic.compare_and_set p old final then begin
            List.iter (fun schedule_resume -> schedule_resume ()) (List.rev waiters);
            true
          end
          else loop ()
      | Fulfilled _ | Failed _ -> false
    in
    loop ()

  let try_fulfil p v = resolve p (Fulfilled v)

  let fulfil p v =
    if not (try_fulfil p v) then
      invalid_arg "Fiber.Promise.fulfil: promise already resolved"

  let fail ?bt p e =
    let bt =
      match bt with Some bt -> bt | None -> Printexc.get_raw_backtrace ()
    in
    if not (resolve p (Failed (e, bt))) then
      invalid_arg "Fiber.Promise.fail: promise already resolved"

  let try_await p =
    match Atomic.get p with
    | Pending _ -> None
    | Fulfilled v -> Some v
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt

  (* [await] lives below, next to the effect. *)
end

type sched = {
  schedule : (unit -> unit) -> unit;
      (* Make a ready continuation runnable.  Called by [fulfil] (on
         whatever thread resolves the promise) once per parked
         waiter. *)
  on_suspend : unit -> unit;
      (* Fired on the awaiting worker immediately after its
         continuation is parked. *)
  on_resume : unit -> unit;
      (* Fired on the executing worker immediately before a parked
         continuation is continued. *)
}

(* Degenerate scheduler: a ready continuation runs immediately on the
   fulfilling thread.  Useful for tests and for code that wants
   promise/await semantics without a pool. *)
let inline_sched =
  { schedule = (fun k -> k ()); on_suspend = ignore; on_resume = ignore }

type _ Effect.t += Await : 'a P.t -> 'a Effect.t

let await p =
  match Atomic.get p with
  | P.Fulfilled v -> v
  | P.Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | P.Pending _ -> Effect.perform (Await p)

(* The handler.  [run sched body] executes [body] with [Await]
   handled:

   - [Await p] with [p] resolved: continue (or discontinue)
     immediately — the race where a fulfil lands between the perform
     and the handler costs nothing.
   - [Await p] pending: build the resumption closure, CAS-push it
     onto the waiter list, fire [on_suspend], and return.  The
     worker's stack is now free; the continuation lives on the
     promise until [fulfil]/[fail] schedules it.

   The resumption closure re-checks the promise state when it finally
   runs (the fulfil happens-before the schedule, so the state is
   terminal by then), fires [on_resume], and continues or discontinues
   the one-shot continuation.

   [try_with], not [match_with]: with the identity return and [raise]
   as the exception case, its one-field handler record saves two words
   on every run, and every task a pool executes runs through here. *)
let run sched body =
  let open Effect.Deep in
  try_with body ()
    {
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Await p ->
              Some
                (fun (k : (a, _) continuation) ->
                  let resume () =
                    sched.on_resume ();
                    match Atomic.get p with
                    | P.Fulfilled v -> continue k v
                    | P.Failed (e, bt) -> discontinue_with_backtrace k e bt
                    | P.Pending _ ->
                        (* Unreachable: a waiter is only scheduled by
                           [resolve] after the terminal CAS. *)
                        assert false
                  in
                  let waiter () = sched.schedule resume in
                  let rec park () =
                    match Atomic.get p with
                    | P.Pending waiters as old ->
                        if
                          Atomic.compare_and_set p old
                            (P.Pending (waiter :: waiters))
                        then sched.on_suspend ()
                        else park ()
                    | P.Fulfilled v ->
                        (* Lost the race with fulfil: never parked, so
                           no suspend/resume accounting. *)
                        continue k v
                    | P.Failed (e, bt) ->
                        discontinue_with_backtrace k e bt
                  in
                  park ())
          | _ -> None);
    }

(* Re-export [await] under [Promise] so the promise API is complete on
   its own ([create]/[await]/[fulfil]/[fail]/[try_await]). *)
module Promise = struct
  include P

  let await = await
end
