(** Exhaustive interleaving exploration of real code over {!Sched_atomic}.

    A scenario's threads run as fibers.  Each access to a
    {!Sched_atomic} cell performs {!Sched_atomic.Yield} first, and at
    that point the explorer picks the thread that moves next.  Every
    choice is explored depth-first; fibers are one-shot, so a sibling
    choice replays the scenario from its set-up along the chosen prefix.
    The code between two accesses runs as one step.  A thread blocked
    in {!Sched_atomic.update_when} (on a {!Sched_mutex} or a
    {!Sched_condition}) is not chosen until its access is enabled.

    States are memoised on an exact key: the histories of the
    unfinished threads, the location and content id of every cell (both
    named by histories, see {!Sched_atomic}), and the scenario's ghost
    state.  A finished thread's history is dropped.  A run that reaches
    200 steps is reported as a violation and not explored further, so a
    thread spinning on a cell no one writes cannot hang the check. *)

type scenario = {
  ghost : unit -> int list;
      (** scenario state outside any cell that {!field-observe} and
          {!field-check} read *)
  observe : int -> string list;
      (** [observe i] runs after each step, where [i] is the moving
          thread's index in spawn order; it returns the violations that
          step shows *)
  check : unit -> string list;
      (** violations of a complete execution: no thread can move, as
          every thread has finished or is blocked *)
}

type report = {
  states_explored : int;
  complete_executions : int;  (** distinct complete states, blocked ones included *)
  violations : string list;  (** deduplicated; empty = verified *)
}

val explore : (unit -> scenario) -> report
(** [explore setup] runs [setup] at the start of every replay: it makes
    the cells and starts the threads with {!spawn}.  A thread that
    raises is a violation. *)

val spawn : ?role:int -> (unit -> unit) -> unit
(** Add a thread, during set-up or from a running thread.  It runs up
    to its first access at once; after that it is scheduled like the
    others.  Threads spawned with the same [role] start from the same
    history, so states that differ only by a permutation of them are
    explored once: their bodies must be the same code over the same
    values, and they must not each use a cell of their own: two cells
    they make at one history share a location, and an access to the
    second is reported as a violation (see {!Sched_atomic}).  Without
    [role] the history starts from the spawner's. *)

val pp_report : Format.formatter -> report -> unit
