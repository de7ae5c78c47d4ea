// perfbench_driver: runs one benchmark workload and prints one JSON
// object on its last stdout line — {"correct", "attempted", "failed",
// "metrics", "info", "violations"}. perfbench/run.py builds this binary,
// invokes it and turns that object into the benchmark's result line.
//
//   perfbench_driver --workload=leader-put --seed=1 --seconds=20 --trace=0
//       --work-dir=DIR [--sweep=1]
//
// --sweep=1 prints a latency-vs-rate survey of a realnet workload to
// stderr instead of measuring; it is how the fixed rates were chosen.
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common.h"

namespace perfbench {

namespace {

/// Per-layer metrics only one family exercises; the other family
/// reports them as 0 so every traced result carries the same names.
const std::vector<std::pair<const char*, const char*>> kRealnetLayers = {
    {"client.send_lag_ms.p50", "ms"},
    {"client.send_lag_ms.p99", "ms"},
    {"client.read_p50_ms", "ms"},
    {"client.write_p50_ms", "ms"},
    {"client.read_minus_write_p50_ms", "ms"},
    {"client.failed_ratio", "ratio"},
    {"net.tcp.reactor_cpu_us_per_op", "us"},
    {"net.tcp.syscalls_per_op", "count"},
    {"net.tcp.writev_per_op", "count"},
    {"net.tcp.frames_per_writev", "count"},
    {"net.tcp.reactor_busy_ratio", "ratio"},
    {"net.tcp.bytes_out_per_op", "B"},
    {"net.tcp.frames_dropped", "count"},
    {"paxos.follower_cpu_us_per_op", "us"},
    {"paxos.leader_cpu_us_per_op", "us"},
    {"paxos.leader_ctxsw_per_op", "count"},
    {"paxos.leader_runq_us_per_op", "us"},
    {"paxos.leader_offcpu_ratio", "ratio"},
    {"paxos.log_compactions_per_s", "1/s"},
    {"paxos.fast_commit_ratio", "ratio"},
    {"paxos.fast_conflicts_per_kop", "count"},
    {"storage.wal_fsyncs_per_op", "count"},
    {"storage.wal_bytes_per_op", "B"},
    {"storage.sync_ms.p50", "ms"},
    {"storage.sync_ms.p99", "ms"},
};
const std::vector<std::pair<const char*, const char*>> kSimLayers = {
    {"sim.events_per_s", "1/s"},
    {"sim.self_ns_per_event", "ns"},
    {"sim.events_per_commit", "count"},
    {"paxos.handler_ns_per_msg", "ns"},
    {"paxos.handler_ns.propose", "ns"},
    {"paxos.handler_ns.accept", "ns"},
    {"paxos.handler_ns.decide", "ns"},
    {"paxos.msgs_per_commit", "count"},
    {"paxos.bytes_per_commit", "B"},
    {"smr.apply_ns_per_op", "ns"},
    {"quorum.vwait_ms.p50", "ms"},
};

std::string FirstLine(const std::string& path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ToJson(const RunResult& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit) << "}";
    first = false;
  }
  out << "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : r.info) {
    out << (first ? "" : ", ") << JsonString(key) << ": " << JsonString(value);
    first = false;
  }
  out << "}, \"violations\": [";
  for (size_t i = 0; i < r.violations.size(); ++i) {
    out << (i ? ", " : "") << JsonString(r.violations[i]);
  }
  out << "]}";
  return out.str();
}

bool Flag(const std::string& arg, const std::string& name, std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  for (int field = 0; field < 8; ++field) {
    double v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

void RecordHostShape(RunResult* result) {
  result->info["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  result->info["cpu_model"] = FirstLine("/proc/cpuinfo", "model name");
  utsname u{};
  if (uname(&u) == 0) result->info["kernel"] = u.release;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  config.server_binary = PERFBENCH_SERVER_BINARY;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (Flag(arg, "workload", &v)) {
      config.workload = v;
    } else if (Flag(arg, "seed", &v)) {
      config.seed = std::stoull(v);
    } else if (Flag(arg, "seconds", &v)) {
      config.seconds = std::stod(v);
    } else if (Flag(arg, "trace", &v)) {
      config.trace = v == "1";
    } else if (Flag(arg, "work-dir", &v)) {
      config.work_dir = v;
    } else if (Flag(arg, "sweep", &v)) {
      config.sweep = v == "1";
    } else {
      std::cerr << "unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (config.work_dir.empty() || config.seconds <= 0) {
    std::cerr << "need --work-dir and --seconds > 0\n";
    return 2;
  }
  const bool sim = config.workload == "sim-aws7";
  const CpuTimes before = ReadCpuTimes();
  RunResult result = sim ? RunSimAws7(config) : RunRealnet(config);
  const CpuTimes after = ReadCpuTimes();
  // Share of CPU time the hypervisor gave to other guests during the run:
  // on a shared VM, the first thing to look at when a number moves.
  if (after.total > before.total) {
    result.info["cpu_steal_ratio"] = std::to_string(
        (after.steal - before.steal) / (after.total - before.total));
  }
  RecordHostShape(&result);
  result.info["workload"] = config.workload;
  result.info["seed"] = std::to_string(config.seed);
  if (config.trace) {
    for (const auto& [name, unit] : sim ? kRealnetLayers : kSimLayers) {
      result.Set(name, 0, unit);
    }
  }
  std::cout << ToJson(result) << std::endl;
  return 0;
}
