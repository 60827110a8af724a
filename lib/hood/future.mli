(** Futures over the Hood pool: the user-facing spawn/join of the
    work-stealing runtime.

    [spawn] pushes a task onto the calling worker's deque bottom (the
    thread-creation action of the scheduling loop); [force] joins.  A
    future is one atomic cell plus the task closure: the task publishes
    its outcome into the cell with one CAS, and a
    {!Abp_fiber.Fiber.Promise} is created only when a forcer has to
    wait — the child was stolen, or a second task forces the future
    before the first join finishes.  A pending [force] has two join
    strategies, tried in order:

    - {b Inline an unstolen child} (the work-first rule of the Figure 3
      loop and Hood): if the child is still at the bottom of the
      forcer's own deque, no thief took it, so [force] pops it and runs
      it inline — push, pop, the body, one CAS and a field read: no
      promise, no suspension, no synchronization beyond the deque's own
      last-element case.
    - {b Suspend}: otherwise [force] installs a promise in the cell (or
      finds the one another forcer installed), the continuation parks
      on it and the worker returns to the Figure 3 loop — a blocked
      join never occupies its process, as a blocked thread's process
      in the paper's loop goes back for other work.  Every task on the
      pool, and the {!Pool.run} body, runs under the pool's fiber
      handler, so this suspension always has a handler to park in. *)

type 'a t
(** A pending or resolved result of a {!spawn}ed computation. *)

val spawn : (unit -> 'a) -> 'a t
(** Must be called from inside {!Pool.run} (or a task).  The computation
    may run on any worker.  Exceptions are captured and re-raised at
    {!force}. *)

val force : 'a t -> 'a
(** Wait for the value: run the child inline if it is unstolen,
    otherwise suspend the current fiber until the child publishes.
    Every pending [force] passes one {!Worker.checkpoint} gate safe
    point first.  Must be called from inside {!Pool.run} (or a task).
    Re-raises the task's exception, with its original backtrace, if it
    failed.  Any number of tasks may force the same future, any number
    of times: each gets the same value (or the same exception
    value). *)

val is_resolved : 'a t -> bool
(** [true] once the task has published its value or exception (a
    non-blocking check; it never runs or waits for the task). *)

val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both f g] = fork-join: spawn [f], run [g] inline, force — the
    canonical two-way spawn of the paper's dag model. *)
