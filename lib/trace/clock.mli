(** Monotonic nanosecond timestamps.

    The default timestamp source for the serving layer ({!Abp_serve}):
    {!now} reads [CLOCK_MONOTONIC] through a C stub and returns integer
    nanoseconds since an arbitrary epoch (boot, typically).  Unlike
    [Unix.gettimeofday] it never steps when NTP slews or an operator
    sets the wall clock, so deadlines computed as [now () + delta] and
    latency intervals [t1 - t0] are always well-ordered.  The reading
    fits OCaml's immediate [int] (2{^62} ns is ~146 years), the stub is
    allocation-free, and a call costs a vDSO read (~20 ns) — cheap
    enough to stamp every request twice. *)

external now : unit -> int = "abp_clock_monotonic_ns" [@@noalloc]
(** Nanoseconds of [CLOCK_MONOTONIC].  Monotone non-decreasing within a
    process; only differences are meaningful (the epoch is arbitrary,
    so never compare against wall-clock time). *)

val ns_per_s : int
(** [1_000_000_000]. *)

val to_s : int -> float
(** Nanoseconds to seconds. *)

val of_s : float -> int
(** Seconds to nanoseconds (truncating). *)

val to_ms : int -> float
(** Nanoseconds to milliseconds. *)

external sleep_until : int -> unit = "abp_clock_sleep_until"
(** [sleep_until due] blocks the calling thread until {!now} reaches
    the absolute timestamp [due]; returns at once if it already has.
    One absolute [clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME)], so
    it never returns early and a signal only resumes the same sleep.
    On Linux the first call on a thread sets that thread's timer slack
    to 1 ns ([prctl(PR_SET_TIMERSLACK)]): the default 50 µs slack
    would otherwise make every wait overshoot by about that much.
    Only threads that sleep through this function get the new slack;
    other platforms fall back to a relative [nanosleep] loop.  The
    runtime lock is released while sleeping, so a sleeping domain
    never delays a stop-the-world collection. *)

external yield_cpu : unit -> unit = "abp_clock_yield_cpu"
(** Hand the processor back to the OS scheduler: [sched_yield()] with
    the runtime lock released.  Unlike [Domain.cpu_relax] (a PAUSE the
    OS never sees), another runnable thread on this core gets to run
    now.  Costs one syscall when nothing else is runnable. *)
