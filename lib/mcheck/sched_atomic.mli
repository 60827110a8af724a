(** A drop-in [Atomic] for model checking production code.

    Every access performs {!Yield} first, so that the handler
    ({!Sched_explorer}) chooses which thread makes the next shared
    access; [make] performs none.  While no explorer thread runs
    ([running] is false: scenario set-up, final checks) the operations
    act at once.

    Every creation and access also extends the running thread's
    history, an exact hash-consed id ({!intern}).  A cell's location is
    named by its creator's history and its content by its writer's
    history, so two schedules that end in equal ids end in the same
    state, up to a swap of same-role threads.  Two same-role threads can
    make cells at one history, which then share a location; an access to
    the second of them raises [Failure], as the ids could no longer tell
    them apart. *)

type 'a t

val make : 'a -> 'a t
val get : 'a t -> 'a
val set : 'a t -> 'a -> unit
val exchange : 'a t -> 'a -> 'a
val compare_and_set : 'a t -> 'a -> 'a -> bool
val fetch_and_add : int t -> int -> int
val incr : int t -> unit
val decr : int t -> unit

val update_when : 'a t -> ('a -> bool) -> ('a -> 'a) -> 'a
(** [update_when c ready f] blocks the thread until [ready] holds of
    [c]'s content, then replaces that content [v] by [f v] and returns
    [v], as one access: the blocking primitive of {!Sched_mutex} and
    {!Sched_condition}.  Outside a run it raises [Failure] where it
    would block. *)

val peek : 'a t -> 'a
(** The content, read without a yield and without extending any
    history: for a scenario's observations and final checks. *)

type _ Effect.t += Yield : (unit -> bool) -> unit Effect.t
(** Performed before each access, with the condition under which the
    thread may make it: always true except in {!update_when}. *)

val running : bool ref
val hist : int ref
(** The running thread's history id; the explorer saves and restores it
    per thread. *)

val intern : int -> int * int * int -> int
(** [intern h event] is the id of history [h] extended by [event] (a
    kind, a location and a content id), the same id each time it is
    asked.  Ids are positive; [0] is the empty history. *)

val reset : unit -> unit
(** Forget the cells made so far and return [hist] to [0]: a new run
    starts. *)

val memory : unit -> (int * int) list
(** Location and content id of every cell made since {!reset}, sorted. *)
