(** The lean future behind {!Future}: one atomic cell plus the task
    closure, joined work-first.  Internal to the runtime: the [Abp]
    umbrella does not re-export it.  {!Future} is its public face and
    documents the semantics; {!Par} calls it directly to spawn on a
    worker it already holds. *)

type 'a t
(** {!Future.t} is this type. *)

val spawn_on : Worker.t -> (unit -> 'a) -> 'a t
(** [spawn_on w f] is {!Future.spawn}[ f] without the domain-local
    storage read: [w] must be the calling domain's worker, read since
    the caller last ran anything that may suspend (a {!force}, or any
    code of the user's).  A suspended computation can resume on
    another domain, and pushing onto another worker's deque breaks the
    owner-only rule of the deque. *)

val force : 'a t -> 'a
(** {!Future.force}. *)

val is_resolved : 'a t -> bool
(** {!Future.is_resolved}. *)
