/* Monotonic nanosecond clock for the scheduler and serving layers.
 *
 * CLOCK_MONOTONIC never steps with NTP adjustments or settimeofday,
 * so deadlines and latency intervals measured against it are immune
 * to wall-clock jumps (gettimeofday is not).  The reading fits an
 * OCaml immediate int (2^62 ns = ~146 years of uptime), so the stub
 * is [@@noalloc]: one syscall-free vDSO call and a Val_long.
 *
 * The two ways the library gives time back to the OS also live here:
 * an exact absolute sleep and a real sched_yield.  Both release the
 * domain's runtime lock for the duration, so a sleeping or yielding
 * domain never holds up a stop-the-world collection.
 */
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <errno.h>
#include <sched.h>
#include <time.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

static intnat monotonic_ns(void)
{
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

CAMLprim value abp_clock_monotonic_ns(value unit)
{
  (void)unit;
  return Val_long(monotonic_ns());
}

#ifdef __linux__
/* Linux rounds every timed wait up by the calling thread's timer
 * slack, 50 us by default.  A 1 ns slack lets a sleep end within a few
 * microseconds of its deadline.  Timer slack is per thread, so the
 * library sets it lazily on the threads that sleep through it and
 * leaves every other thread of the process alone. */
static _Thread_local int slack_set = 0;
#endif

CAMLprim value abp_clock_sleep_until(value v_due)
{
  intnat due = Long_val(v_due);
  if (due <= monotonic_ns()) return Val_unit;
#ifdef __linux__
  if (!slack_set) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    slack_set = 1;
  }
  struct timespec ts;
  ts.tv_sec = (time_t)(due / 1000000000);
  ts.tv_nsec = (long)(due % 1000000000);
  caml_enter_blocking_section();
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, NULL) == EINTR) {
  }
  caml_leave_blocking_section();
#else
  caml_enter_blocking_section();
  for (intnat d = due - monotonic_ns(); d > 0; d = due - monotonic_ns()) {
    struct timespec rel;
    rel.tv_sec = (time_t)(d / 1000000000);
    rel.tv_nsec = (long)(d % 1000000000);
    nanosleep(&rel, NULL);
  }
  caml_leave_blocking_section();
#endif
  return Val_unit;
}

CAMLprim value abp_clock_yield_cpu(value unit)
{
  (void)unit;
  caml_enter_blocking_section();
  sched_yield();
  caml_leave_blocking_section();
  return Val_unit;
}
