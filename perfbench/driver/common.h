// Shared plumbing for the benchmark driver: the monotonic clock, sample
// summaries, seeded generators and the result record every workload
// fills in.
#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on CLOCK_MONOTONIC.
inline int64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Nearest-rank percentile (p in [0, 100]) of `v`; sorts `v` in place.
/// Returns 0 for an empty sample.
inline double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

inline double Median(std::vector<double> v) { return Percentile(v, 50); }

/// splitmix64: the driver's only source of randomness, seeded from the
/// benchmark's --seed so every op sequence is reproducible.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one invocation reports. `metrics` holds the end-to-end set
/// (untraced run) or the per-layer set (traced run); `info` carries the
/// host shape and run parameters, printed beside the result.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;
  std::vector<std::string> violations;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    violations.push_back(why);
  }
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Print a latency-vs-rate survey instead of measuring (realnet).
  bool sweep = false;
  /// Directory for server logs, WAL data and scratch files.
  std::string work_dir;
  std::string server_binary;
};

/// Entry points of the two workload families.
RunResult RunRealnet(const RunConfig& config);
RunResult RunSimAws7(const RunConfig& config);

/// Host shape recorded in every result.
void RecordHostShape(RunResult* result);

/// Aggregate CPU time from /proc/stat (clock ticks), for the steal share.
struct CpuTimes {
  double total = 0;
  double steal = 0;
};
CpuTimes ReadCpuTimes();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
