(* The lean future behind {!Future}.  [Future] is the public face;
   [Par] calls this module directly so that its spawns can pass the
   worker they already hold ([spawn_on]) instead of reading it from
   domain-local storage again.

   A future is one atomic cell plus the task closure itself — the
   identity the work-first join looks for on the forcer's deque.  The
   cell starts [Unforced] and makes at most two moves:

   - the task publishes its outcome with one CAS [Unforced -> Value |
     Raised];
   - a forcer that has to wait first installs a fresh promise with one
     CAS [Unforced -> Waited p]; the task's publishing CAS then fails,
     and it fulfils [p] instead.

   [Waited] never reverts, so the task's single CAS decides which of the
   two it does, and every forcer that reads [Waited p] waits on the same
   promise (checked exhaustively by the [future_cell] mcheck scenario,
   which runs a copy of this file generated in lib/mcheck with a
   scheduling [Atomic], the checked [Fiber] and a [Worker] stub: keep
   to the [Atomic] and [Worker] functions that copy provides).
   A [Fiber.Promise] exists only when some forcer really waits: the
   child was stolen, or a second task forces the future before the
   first join finishes.  An unstolen join allocates none.

   A pending [force] has two join strategies, tried in this order:

   - Inline an unstolen child (the work-first rule of Figure 3 and
     Hood).  A child no thief took is still at the bottom of the
     forcer's own deque — the parent-first spawn put it there and
     every spawn made since has been joined.  [Worker.pop_own] pops it
     and the forcer runs it on its own stack: push, pop, the body, one
     CAS and a field read — no promise, no effect capture, no
     continuation push/pop.  The task runs raw: if it awaits, the
     enclosing handler parks it together with its parent, which is
     waiting on it anyway.

   - Suspend.  The bottom was something else (the child was stolen, or
     sits under a later spawn not yet forced or a resumed
     continuation) or the deque was empty: the other task goes
     straight back, [force] installs the promise and performs [Await].
     The continuation parks on the promise and the worker returns to
     the scheduling loop; the blocked computation costs no stack.

   Every caller of [force] runs under the pool's [Fiber.run] handler:
   the worker loop wraps each task it executes in one, and so does
   [Pool.run] its body, so the [Await] always finds a handler. *)

module Fiber = Abp_fiber.Fiber

type 'a state =
  | Unforced
  | Waited of 'a Fiber.Promise.t
  | Value of 'a
  | Raised of exn * Printexc.raw_backtrace

type 'a t = { cell : 'a state Atomic.t; task : unit -> unit }

(* The task's publish.  A failed CAS can only mean that a forcer
   installed [Waited p] (nothing else writes the cell while the task is
   unpublished), and that forcer is waiting on [p]. *)
let publish cell outcome =
  if not (Atomic.compare_and_set cell Unforced outcome) then
    match (Atomic.get cell, outcome) with
    | Waited p, Value v -> Fiber.Promise.fulfil p v
    | Waited p, Raised (e, bt) -> Fiber.Promise.fail ~bt p e
    | _ -> assert false

let spawn_on w f =
  let cell = Atomic.make Unforced in
  let task () =
    publish cell
      (match f () with
      | v -> Value v
      | exception e -> Raised (e, Printexc.get_raw_backtrace ()))
  in
  Worker.push_task w task;
  { cell; task }

let is_resolved t =
  match Atomic.get t.cell with
  | Unforced -> false
  | Waited p -> Fiber.Promise.is_resolved p
  | Value _ | Raised _ -> true

(* Wait for the task, installing the promise if no other forcer has.
   [Promise.await] returns at once (or re-raises) on a resolved
   promise, and suspends otherwise. *)
let rec await t =
  match Atomic.get t.cell with
  | Value v -> v
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
  | Waited p -> Fiber.Promise.await p
  | Unforced ->
      let p = Fiber.Promise.create () in
      if Atomic.compare_and_set t.cell Unforced (Waited p) then Fiber.Promise.await p
      else await t

let force t =
  match Atomic.get t.cell with
  | Value v -> v
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
  | Unforced | Waited _ ->
      (* Unpublished, though another forcer may have installed the
         promise already: the child can still sit at our bottom. *)
      let w = Worker.current () in
      (* Gate safe point (the worker holds no unpublished tasks
         here): a chain of inline joins must still honour
         multiprogramming suspensions at every node. *)
      Worker.checkpoint w;
      (* After an inline run the task has published, so [await] reads
         the outcome without suspending. *)
      if Worker.pop_own w t.task then t.task ();
      await t
