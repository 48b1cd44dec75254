/* CPU time this process has used, in nanoseconds. Contention from
   other processes on a shared host stretches elapsed time but not
   this clock. */

#include <time.h>
#include <caml/mlvalues.h>

value perfbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
