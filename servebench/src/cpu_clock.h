// The clock every host-time metric of the benchmark is read on: the CPU
// time of the whole process (CLOCK_PROCESS_CPUTIME_ID), summed over its
// threads.
//
// Why not the wall clock: the benchmark runs on virtual CPUs of a shared
// host, and when the host takes a vCPU away the wall clock keeps running.
// Runs of the same code then read up to twice as slow as each other, for
// reasons that have nothing to do with the code. Linux does not charge
// that stolen time to the process (paravirtual steal accounting), nor time
// a thread spends waiting for a core, so the CPU clock advances only while
// the benchmark's own code runs. On a serial workload it reads what the
// wall clock would on a dedicated core. With decode workers it reads the
// work of every thread, so a latency is CPU milliseconds spent by the
// server until then: the parallel speed-up does not shorten it, but any
// change in the work does show.
#pragma once

#include <time.h>

#include <chrono>

namespace servebench {

struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;

  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(duration(static_cast<rep>(ts.tv_sec) * 1000000000 +
                               ts.tv_nsec));
  }
};

}  // namespace servebench
