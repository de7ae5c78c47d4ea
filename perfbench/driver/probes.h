// Outside-in probes for the traced realnet run. Nothing here reaches
// into a server: per-thread CPU comes from /proc/<pid>/task/*/schedstat
// and status, syscall counts from /proc/<pid>/io, protocol and transport
// counters from the `stats` op, and disk sync time from timing the
// storage layer's own PosixEnv file calls.
#ifndef PERFBENCH_DRIVER_PROBES_H_
#define PERFBENCH_DRIVER_PROBES_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One thread of a server. The thread whose tid equals the pid runs the
/// replica loop; every other thread of a `dpaxos_cli --serve` process is
/// a reactor.
struct ThreadSample {
  int tid = 0;
  double cpu_ns = 0;   ///< time on CPU (schedstat)
  double runq_ns = 0;  ///< time runnable but waiting for a CPU
  uint64_t ctxsw = 0;  ///< voluntary + involuntary context switches
};

struct ProcSample {
  pid_t pid = 0;
  int64_t at_ns = 0;
  std::vector<ThreadSample> threads;
  uint64_t syscalls = 0;  ///< syscr + syscw from /proc/<pid>/io
};

ProcSample SampleProc(pid_t pid);

/// Difference between two samples of one process, split into the
/// replica thread and the reactor threads.
struct ProcDelta {
  double wall_ns = 0;
  double main_cpu_ns = 0;
  double main_runq_ns = 0;
  uint64_t main_ctxsw = 0;
  double reactor_cpu_ns = 0;
  uint32_t reactor_threads = 0;
  uint64_t syscalls = 0;
};

ProcDelta DiffProc(const ProcSample& before, const ProcSample& after);

/// Peak resident set (VmHWM) of `pid` in MiB (0 if unreadable).
double PeakRssMb(pid_t pid);

/// Numeric fields of one `stats` op reply (`key=value ...`).
std::map<std::string, double> ParseStats(const std::string& line);

/// Times `count` rounds of PosixEnv WritableFile Append(record_bytes) +
/// Sync() on a fresh file in `dir`, the WAL's write path. Returns one
/// duration (ns) per round; empty on any I/O error.
std::vector<double> ProbeSync(const std::string& dir, size_t record_bytes,
                              int count);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_PROBES_H_
