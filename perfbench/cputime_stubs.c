/* CPU time of the calling thread, in nanoseconds. On Linux with
   paravirtual steal-time accounting this leaves out the time the thread
   was descheduled, by the guest's scheduler or by the hypervisor. */

#include <time.h>
#include <caml/mlvalues.h>

value perfbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

