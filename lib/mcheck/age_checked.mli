(** The age word of the checked deque ([Atomic_deque_checked]): the
    production {!Abp_deque.Age}, except that {!bump_tag} wraps the tag
    at {!width} bits with {!Abp_deque.Bounded_tag.succ}.  Width 0 is
    the deque without a tag (the Section 3.3 ABA failure); small widths
    show the bounded-tags wraparound. *)

include module type of struct
  include Abp_deque.Age
end

val width : int ref
(** The tag width in bits, [0 ..] {!Abp_deque.Bounded_tag.max_width}
    (the default, where [bump_tag] is the production one). *)
