(** Instruction-granular model of {!Wsm_deque} for interleaving
    exploration ({!Abp_mcheck.Wsm_explorer}).

    Each method is a small state machine whose transitions are its
    {e shared-memory accesses} — loads and stores of the publication
    cursor [pub], the consume cursor [con] and the board slots; there
    is no CAS anywhere, which is the point.  Accesses to the
    owner-private ring are folded into the adjacent shared access
    (invisible to other processes, the standard reduction).

    Unlike the ABP deque's checks, which demand exactly-once
    extraction, interleavings of these machines legitimately return the
    same value from two extractions (multiplicity); the matching
    explorer checks the weaker contract — nothing lost, nothing
    invented, duplicates allowed — plus exactness in the serial case. *)

type value = int

type state = {
  board : value option array;
  mutable pub : int;
  mutable con : int;
  mutable priv : value list;  (** owner-private ring, oldest first *)
}
(** Shared memory (plus the folded private ring).  Mutated in place by
    {!step}; use {!copy_state} for exploration. *)

val board_length : int
(** Model board length (4): small enough to explore, large enough to
    exercise slot reuse ([pub] wraps after four publishes). *)

val create_state : unit -> state
val copy_state : state -> state
val state_equal : state -> state -> bool

val abstract_size : state -> int
(** Private items plus the published window [max 0 (pub - con)]. *)

type op = Push_bottom of value | Pop_bottom | Pop_top
type outcome = Unit | Nil | Value of value

type ctx = {
  op : op;
  mutable pc : int;
  mutable r_c : int;
  mutable r_p : int;
  mutable r_slot : value option;
  mutable r_node : value option;
  mutable result : outcome option;
}
(** One in-flight invocation: program counter plus register file,
    exposed transparently for the explorer's state hashing. *)

val start : op -> ctx
val copy_ctx : ctx -> ctx
val ctx_equal : ctx -> ctx -> bool

val finished : ctx -> outcome option

val step : state -> ctx -> unit
(** Execute the next shared-memory access of [ctx] against [state].
    Raises [Invalid_argument] if the invocation already finished. *)

val steps_bound : op -> int
(** Upper bound on {!step} calls per invocation (4 for every method):
    the protocol is loop-free — stronger than non-blocking, every
    method is wait-free with a constant bound. *)
