(* A future is the promise its spawned task resolves, plus the task
   closure itself — the identity the work-first join looks for on the
   forcer's deque.  A pending [force] has three join strategies, tried
   in this order:

   - Inline an unstolen child (the work-first rule of Figure 3 and
     Hood).  A child no thief took is still at the bottom of the
     forcer's own deque — the parent-first spawn put it there and
     every spawn made since has been joined.  [Pool.pop_own] pops it
     and the forcer runs it on its own stack: no effect capture, no
     waiter CAS, no continuation push/pop.  In a fiber context the
     task runs raw: if it awaits, the enclosing handler parks it
     together with its parent, which is waiting on it anyway.

   - Suspend (in a fiber context — any task body, and the [Pool.run]
     body).  The bottom was something else (the child was stolen, or
     sits under a later spawn not yet forced or a resumed
     continuation) or the deque was empty:
     the other task goes straight back and [force] performs [Await].
     The continuation parks on the promise and the worker returns to
     the scheduling loop; the blocked computation costs no stack.

   - Help (outside any fiber handler: code calling [force] from a
     context the pool did not wrap).  Run local or stolen tasks while
     polling, each via [Pool.run_task] so it gets its own handler — run
     raw, a helped task's [Await] would be captured by an enclosing
     handler and park the helper itself.  The inlined child goes
     through [Pool.run_task] here too. *)

module Fiber = Abp_fiber.Fiber

type 'a t = { promise : 'a Fiber.Promise.t; task : unit -> unit }

let spawn f =
  let w = Pool.current () in
  let promise = Fiber.Promise.create () in
  let task () =
    match f () with
    | v -> Fiber.Promise.fulfil promise v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Fiber.Promise.try_fail ~bt promise e)
  in
  Pool.push_task w task;
  { promise; task }

let is_resolved t = Fiber.Promise.is_resolved t.promise

let force { promise; task } =
  match Fiber.Promise.try_await promise with
  | Some v -> v
  | None ->
      let w = Pool.current () in
      (* Gate safe point (the worker holds no unpublished tasks
         here): a chain of inline joins must still honour
         multiprogramming suspensions at every node. *)
      Pool.checkpoint w;
      if Fiber.in_context () then begin
        (* After an inline run the promise is resolved, so [await]
           returns the value or re-raises with the original
           backtrace. *)
        if Pool.pop_own w task then task ();
        Fiber.Promise.await promise
      end
      else begin
        (* Out of context the inlined child may park under its own
           handler, leaving the promise pending: fall into the help
           loop either way. *)
        if Pool.pop_own w task then Pool.run_task w task;
        let rec wait () =
          match Fiber.Promise.try_await promise with
          | Some v -> v
          | None ->
              Pool.checkpoint w;
              (match Pool.try_get_task w with
              | Some task -> Pool.run_task w task
              | None -> Pool.relax ());
              wait ()
        in
        wait ()
      end

let both f g =
  let fa = spawn f in
  let b = g () in
  let a = force fa in
  (a, b)
