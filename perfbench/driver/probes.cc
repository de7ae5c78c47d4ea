#include "probes.h"

#include <dirent.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common.h"
#include "storage/env.h"

namespace perfbench {

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Value of "<key>:" in a /proc status-style file, or 0.
uint64_t FieldOf(const std::string& text, const std::string& key) {
  const size_t pos = text.find(key + ":");
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + key.size() + 1, nullptr, 10);
}

}  // namespace

ProcSample SampleProc(pid_t pid) {
  ProcSample sample;
  sample.pid = pid;
  sample.at_ns = NowNs();
  const std::string base = "/proc/" + std::to_string(pid);
  if (DIR* dir = opendir((base + "/task").c_str())) {
    while (dirent* entry = readdir(dir)) {
      if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
      const std::string task = base + "/task/" + entry->d_name;
      ThreadSample t;
      t.tid = std::atoi(entry->d_name);
      std::istringstream schedstat(ReadFile(task + "/schedstat"));
      schedstat >> t.cpu_ns >> t.runq_ns;
      const std::string status = ReadFile(task + "/status");
      t.ctxsw = FieldOf(status, "voluntary_ctxt_switches") +
                FieldOf(status, "nonvoluntary_ctxt_switches");
      sample.threads.push_back(t);
    }
    closedir(dir);
  }
  const std::string io = ReadFile(base + "/io");
  sample.syscalls = FieldOf(io, "syscr") + FieldOf(io, "syscw");
  return sample;
}

ProcDelta DiffProc(const ProcSample& before, const ProcSample& after) {
  ProcDelta d;
  d.wall_ns = static_cast<double>(after.at_ns - before.at_ns);
  d.syscalls = after.syscalls - before.syscalls;
  for (const ThreadSample& t : after.threads) {
    ThreadSample prev;
    for (const ThreadSample& b : before.threads) {
      if (b.tid == t.tid) prev = b;
    }
    if (t.tid == after.pid) {
      d.main_cpu_ns += t.cpu_ns - prev.cpu_ns;
      d.main_runq_ns += t.runq_ns - prev.runq_ns;
      d.main_ctxsw += t.ctxsw - prev.ctxsw;
    } else {
      d.reactor_cpu_ns += t.cpu_ns - prev.cpu_ns;
      ++d.reactor_threads;
    }
  }
  return d;
}

double PeakRssMb(pid_t pid) {
  const std::string status =
      ReadFile("/proc/" + std::to_string(pid) + "/status");
  return static_cast<double>(FieldOf(status, "VmHWM")) / 1024.0;
}

std::map<std::string, double> ParseStats(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  std::string field;
  while (in >> field) {
    const size_t eq = field.find('=');
    if (eq == std::string::npos) continue;
    char* end = nullptr;
    const double v = std::strtod(field.c_str() + eq + 1, &end);
    if (end != field.c_str() + eq + 1) out[field.substr(0, eq)] = v;
  }
  return out;
}

std::vector<double> ProbeSync(const std::string& dir, size_t record_bytes,
                              int count) {
  std::vector<double> out;
  dpaxos::Env* env = dpaxos::PosixEnv();
  const std::string path = dir + "/perfbench-sync-probe";
  auto file = env->NewWritableFile(path, /*truncate=*/true);
  if (!file.ok()) return out;
  const std::string record(record_bytes == 0 ? 1 : record_bytes, 'p');
  for (int i = 0; i < count; ++i) {
    const int64_t start = NowNs();
    if (!file.value()->Append(record).ok() || !file.value()->Sync().ok()) {
      out.clear();
      break;
    }
    out.push_back(static_cast<double>(NowNs() - start));
  }
  file.value()->Close();
  env->DeleteFile(path);
  return out;
}

}  // namespace perfbench
