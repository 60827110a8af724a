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

  let try_fail ?bt p e =
    let bt =
      match bt with Some bt -> bt | None -> Printexc.get_raw_backtrace ()
    in
    resolve p (Failed (e, bt))

  let fail ?bt p e =
    if not (try_fail ?bt p e) then
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

type _ Effect.t +=
  | Await : 'a P.t -> 'a Effect.t
  | Spawn : (unit -> unit) -> unit Effect.t

(* Fiber-context flag, per domain.  Set while code runs under a [run]
   handler (including resumed continuations, which re-install their
   captured handler).  [Future.force] uses this to pick suspension
   over the helping loop. *)
let ctx_key = Domain.DLS.new_key (fun () -> ref false)

type flag = bool ref

let context_flag () = Domain.DLS.get ctx_key
let[@inline] flag_set (f : flag) = !f
let in_context () = !(Domain.DLS.get ctx_key)

let with_ctx_flag f =
  let flag = Domain.DLS.get ctx_key in
  let saved = !flag in
  flag := true;
  Fun.protect ~finally:(fun () -> flag := saved) f

let await p =
  match Atomic.get p with
  | P.Fulfilled v -> v
  | P.Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | P.Pending _ -> Effect.perform (Await p)

let spawn f =
  let p = P.create () in
  let body () =
    match f () with
    | v -> P.fulfil p v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (P.try_fail ~bt p e)
  in
  Effect.perform (Spawn body);
  p

(* The handler.  [run sched body] executes [body] with [Await] and
   [Spawn] handled:

   - [Spawn task]: hand [task] to the scheduler, continue immediately.
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
   the one-shot continuation under the context flag.

   The flag is set around the whole handler, not inside the handled
   body: when the body suspends, [match_with] returns with the body's
   frames captured in the continuation, so a flag restore inside them
   would not run until the resume, and the flag would stay set on this
   domain after [run] returned. *)
let run sched body =
  let open Effect.Deep in
  with_ctx_flag @@ fun () ->
  match_with body ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Spawn task ->
              Some
                (fun (k : (a, _) continuation) ->
                  sched.schedule task;
                  continue k ())
          | Await p ->
              Some
                (fun (k : (a, _) continuation) ->
                  let resume () =
                    sched.on_resume ();
                    with_ctx_flag (fun () ->
                        match Atomic.get p with
                        | P.Fulfilled v -> continue k v
                        | P.Failed (e, bt) ->
                            discontinue_with_backtrace k e bt
                        | P.Pending _ ->
                            (* Unreachable: a waiter is only scheduled
                               by [resolve] after the terminal CAS. *)
                            assert false)
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
