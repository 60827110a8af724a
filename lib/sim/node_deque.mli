(** Growable array deque of dag nodes used inside the simulator.

    The simulator serializes all memory operations (the paper's model:
    the effect of each step equals some serial order chosen by the
    kernel), so this deque needs only the ideal serial semantics; the
    instruction-level concurrency questions are handled separately by the
    model checker over {!Abp_deque.Atomic_deque}.  O(1) operations, plus
    bottom-to-top iteration for the structural-lemma checker. *)

type t

val create : unit -> t
val push_bottom : t -> int -> unit
val pop_bottom : t -> int option
val pop_top : t -> int option
val size : t -> int
val is_empty : t -> bool

val top : t -> int option
(** Peek at the topmost node (checker use). *)

val iter_bottom_to_top : t -> (int -> unit) -> unit

val to_array_bottom_to_top : t -> int array
