(** The array of the checked deque copies, opened by their headers: each
    slot is one {!Sched_atomic} cell, so that every slot access is a step
    of its own and part of the memo key.  [a.(i)] and [a.(i) <- v]
    resolve to this [Array]'s [get] and [set]. *)

type 'a array = 'a Sched_atomic.t Stdlib.Array.t

module Array : sig
  val make : int -> 'a -> 'a array
  val length : 'a array -> int
  val get : 'a array -> int -> 'a
  val set : 'a array -> int -> 'a -> unit
  val unsafe_get : 'a array -> int -> 'a
  val unsafe_set : 'a array -> int -> 'a -> unit
end
