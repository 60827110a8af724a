(** Lock-based deque baseline.

    Identical interface and serial semantics to {!Atomic_deque}, but every
    method holds a single mutex for its whole duration.  This is the
    "blocking" implementation whose real-world failure mode the paper's
    empirical studies demonstrate: if the kernel preempts a process while
    it holds the lock, every other process spins on that deque until the
    owner runs again.  Used by the E13/E15 experiments as the comparison
    point; the simulator models the same pathology at round granularity
    ({!Abp_sim}). *)

include Spec.S

val pop_bottom_detailed : 'a t -> 'a Spec.detailed
(** {!Spec.DETAILED} view; never [Contended] (no CAS to lose — blocked
    waiters spin on the mutex instead, which is exactly the pathology
    the baseline exists to exhibit). *)

val pop_top_detailed : 'a t -> 'a Spec.detailed
(** See {!pop_bottom_detailed}. *)
