// The three realnet workloads: a 2 zones x 2 nodes RealCluster of
// `dpaxos_cli --serve` processes on loopback, no injected delay, driven
// by one OpenLoopClient.
//
// Untraced run: set-up timed on three spawns; on the last cluster,
// short windows at the heavy rate, then a scan of a fixed rate ladder
// for the highest rate that meets the workload's p99 limit.
// Traced run: one light and one heavy segment, the heavy one bracketed
// by /proc and `stats` samples, then (durable-put) the storage sync
// probe. Both runs end with the correctness checks.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "common.h"
#include "harness/real_cluster.h"
#include "net/tcp/tcp_client.h"
#include "open_loop.h"
#include "probes.h"

namespace perfbench {

using dpaxos::NodeId;
using dpaxos::RealCluster;
using dpaxos::RealClusterOptions;
using dpaxos::Status;

namespace {

constexpr uint32_t kReactors = 1;
constexpr size_t kValueBytes = 50;
/// Set-ups timed per untraced run (the last cluster takes the load),
/// and heavy-rate latency windows per run.
constexpr int kSetups = 3;
constexpr int kWindows = 8;
/// The fixed rate ladder: rung k offers kLadderBase * kLadderStep^k ops/s.
constexpr double kLadderBase = 500;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 100;

struct Spec {
  const char* name;
  bool durable;
  bool fast_path;
  /// Node each connection is opened to (one entry per connection).
  std::vector<NodeId> conn_targets;
  double get_fraction;
  uint32_t key_space;
  /// Fixed open-loop rates (ops/s); see perfbench/README.md for how
  /// they were chosen.
  double light_rate;
  double heavy_rate;
  /// p99 limit (ms) a ladder rung must meet to count toward max_rate_ops.
  double p99_limit_ms;
  /// Ladder rung the max-rate scan starts from (about 90% of the
  /// capacity measured when the rates were chosen).
  int start_rung;
};

const std::vector<Spec>& Specs() {
  static const std::vector<Spec> specs = {
      {"leader-put", false, false, {0, 0, 0, 0}, 0.0, 1u << 20, 1900, 5000,
       150.0, 53},
      {"durable-put", true, false, {0, 0, 0, 0}, 0.0, 1u << 20, 650, 1700,
       100.0, 32},
      {"edge-mixed", false, true, {2, 3, 2, 3}, 0.5, 64, 3500, 9000, 50.0,
       75},
  };
  return specs;
}

double RungRate(int k) { return kLadderBase * std::pow(kLadderStep, k); }

void MakeDirs(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!partial.empty()) mkdir(partial.c_str(), 0755);
    }
    if (i < path.size()) partial.push_back(path[i]);
  }
}

std::unique_ptr<RealCluster> MakeCluster(const RunConfig& config,
                                         const Spec& spec, int attempt) {
  RealClusterOptions options;
  options.server_binary = config.server_binary;
  options.zones = 2;
  options.nodes_per_zone = 2;
  options.mode = dpaxos::ProtocolMode::kLeaderZone;
  options.seed = config.seed * 100 + static_cast<uint64_t>(attempt);
  options.leader_hint = 0;
  options.log_dir = config.work_dir + "/logs/" + std::to_string(attempt);
  MakeDirs(options.log_dir);
  if (spec.durable) {
    options.data_dir_base =
        config.work_dir + "/data/" + std::to_string(attempt);
    MakeDirs(options.data_dir_base);
  }
  options.extra_args.push_back("--reactors=" + std::to_string(kReactors));
  if (spec.fast_path) options.extra_args.push_back("--fast-path");
  return std::make_unique<RealCluster>(options);
}

/// Spawn a cluster and commit its first op. Returns the seconds from
/// spawn to that commit (election included), or a negative value.
double StartAndFirstCommit(RealCluster* cluster, uint64_t seed,
                           std::string* error) {
  const int64_t start = NowNs();
  Status st = cluster->Start();
  if (!st.ok()) {
    *error = "cluster start: " + st.ToString();
    return -1;
  }
  // The first op goes to node 0, the hinted leader, so every workload
  // runs against the same leader whichever nodes take its load.
  dpaxos::TcpClient client(/*client_id=*/9000 + seed);
  st = client.Connect(cluster->endpoint(0), 2 * dpaxos::kSecond);
  for (int attempt = 0; st.ok() && attempt < 2000; ++attempt) {
    st = client.Put("setup", std::string("s") + std::to_string(seed),
                    2 * dpaxos::kSecond);
    if (st.ok()) return static_cast<double>(NowNs() - start) / 1e9;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    st = Status::OK();
  }
  *error = "first commit never succeeded: " + st.ToString();
  return -1;
}

/// Each server pulls a snapshot from its peers once, catchup_delay after
/// it starts. Load waits for every node to finish that pull: installing
/// a snapshot older than what a node has already applied rolls its
/// state machine back (see perfbench/README.md, "Known defect").
bool AwaitBootCatchUp(RealCluster* cluster, std::string* error) {
  const int64_t deadline = NowNs() + 10'000'000'000;
  while (NowNs() < deadline) {
    bool done = true;
    for (NodeId n = 0; n < cluster->num_nodes() && done; ++n) {
      dpaxos::Result<std::string> line = cluster->Stats(n);
      done = line.ok() && ParseStats(line.value())["catchups"] >= 1;
    }
    if (done) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  *error = "start-up catch-up did not finish on every node";
  return false;
}

struct Snapshot {
  std::vector<ProcSample> procs;
  std::vector<std::map<std::string, double>> stats;
};

Snapshot Sample(RealCluster* cluster) {
  Snapshot snap;
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    snap.procs.push_back(SampleProc(cluster->pid(n)));
    dpaxos::Result<std::string> line = cluster->Stats(n);
    snap.stats.push_back(line.ok() ? ParseStats(line.value())
                                   : std::map<std::string, double>{});
  }
  return snap;
}

double StatDelta(const Snapshot& a, const Snapshot& b, NodeId n,
                 const std::string& key) {
  auto before = a.stats[n].find(key);
  auto after = b.stats[n].find(key);
  if (before == a.stats[n].end() || after == b.stats[n].end()) return 0;
  return after->second - before->second;
}

double StatDeltaAll(const Snapshot& a, const Snapshot& b,
                    const std::string& key) {
  double sum = 0;
  for (NodeId n = 0; n < a.stats.size(); ++n) sum += StatDelta(a, b, n, key);
  return sum;
}

double Ms(double ns) { return ns / 1e6; }

/// Per-layer ratios over one probed segment.
void LayerMetrics(const Spec& spec, const Snapshot& a, const Snapshot& b,
                  const SegmentResult& seg, RunResult* out) {
  const double ops = std::max<double>(1, static_cast<double>(seg.ok));
  std::vector<ProcDelta> d;
  for (size_t n = 0; n < a.procs.size(); ++n) {
    d.push_back(DiffProc(a.procs[n], b.procs[n]));
  }
  const NodeId leader = 0;
  double reactor_cpu = 0, target_reactor_cpu = 0, target_wall = 0;
  double follower_cpu = 0, syscalls = 0;
  std::vector<bool> is_target(d.size(), false);
  for (NodeId t : spec.conn_targets) is_target[t] = true;
  for (NodeId n = 0; n < d.size(); ++n) {
    reactor_cpu += d[n].reactor_cpu_ns;
    syscalls += static_cast<double>(d[n].syscalls);
    if (n != leader) follower_cpu += d[n].main_cpu_ns;
    if (is_target[n]) {
      target_reactor_cpu += d[n].reactor_cpu_ns;
      target_wall += d[n].wall_ns * std::max<uint32_t>(1, d[n].reactor_threads);
    }
  }
  const double writev = StatDeltaAll(a, b, "tcp_writev_calls");
  const double coalesced = StatDeltaAll(a, b, "tcp_frames_coalesced");
  const double fast = StatDeltaAll(a, b, "fast_commits");
  const double fallbacks = StatDeltaAll(a, b, "fast_fallbacks");
  out->Set("net.tcp.reactor_cpu_us_per_op", reactor_cpu / 1e3 / ops, "us");
  out->Set("net.tcp.syscalls_per_op", syscalls / ops, "count");
  out->Set("net.tcp.writev_per_op", writev / ops, "count");
  out->Set("net.tcp.frames_per_writev",
           writev > 0 ? (writev + coalesced) / writev : 0, "count");
  out->Set("net.tcp.reactor_busy_ratio",
           target_wall > 0 ? target_reactor_cpu / target_wall : 0, "ratio");
  out->Set("net.tcp.bytes_out_per_op",
           StatDeltaAll(a, b, "tcp_bytes_out") / ops, "B");
  out->Set("net.tcp.frames_dropped", StatDeltaAll(a, b, "tcp_frames_dropped"),
           "count");
  out->Set("paxos.follower_cpu_us_per_op", follower_cpu / 1e3 / ops, "us");
  out->Set("paxos.leader_cpu_us_per_op", d[leader].main_cpu_ns / 1e3 / ops,
           "us");
  out->Set("paxos.leader_ctxsw_per_op",
           static_cast<double>(d[leader].main_ctxsw) / ops, "count");
  out->Set("paxos.leader_runq_us_per_op", d[leader].main_runq_ns / 1e3 / ops,
           "us");
  out->Set("paxos.leader_offcpu_ratio",
           d[leader].wall_ns > 0
               ? 1.0 - d[leader].main_cpu_ns / d[leader].wall_ns
               : 0,
           "ratio");
  out->Set("paxos.log_compactions_per_s",
           StatDelta(a, b, leader, "log_compactions") /
               std::max(1e-9, d[leader].wall_ns / 1e9),
           "1/s");
  out->Set("paxos.fast_commit_ratio",
           fast + fallbacks > 0 ? fast / (fast + fallbacks) : 0, "ratio");
  out->Set("paxos.fast_conflicts_per_kop",
           StatDeltaAll(a, b, "fast_conflicts") * 1000 / ops, "count");
  out->Set("storage.wal_fsyncs_per_op", StatDeltaAll(a, b, "wal_fsyncs") / ops,
           "count");
  out->Set("storage.wal_bytes_per_op", StatDeltaAll(a, b, "wal_bytes") / ops,
           "B");
}

/// After the load stops every node must reach one checksum, apply at
/// least every acknowledged put, and have rejected no suspect message.
void CheckCluster(RealCluster* cluster, uint64_t acked_puts, RunResult* out) {
  const int64_t deadline = NowNs() + 20'000'000'000;
  std::vector<std::map<std::string, double>> stats;
  bool converged = false;
  while (!converged && NowNs() < deadline) {
    stats.clear();
    for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
      dpaxos::Result<std::string> line = cluster->Stats(n);
      stats.push_back(line.ok() ? ParseStats(line.value())
                                : std::map<std::string, double>{});
    }
    converged = true;
    for (const auto& s : stats) {
      if (!s.count("checksum") || s.at("checksum") != stats[0].at("checksum") ||
          s.at("watermark") != stats[0].at("watermark")) {
        converged = false;
      }
    }
    if (!converged) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!converged) {
    std::string detail;
    for (auto& st : stats) {
      detail += " [watermark=" + std::to_string(st["watermark"]) +
                " checksum=" + std::to_string(st["checksum"]) + "]";
    }
    out->Fail("nodes did not converge to one checksum:" + detail);
    return;
  }
  // Recovery and fast-path activity explain most outlying runs; keep
  // the totals beside the result.
  for (const char* key : {"snapshots_installed", "catchup_repairs",
                          "fast_fallbacks", "fast_conflicts",
                          "tcp_frames_dropped", "log_compactions"}) {
    double total = 0;
    for (auto& st : stats) total += st[key];
    out->info[std::string("servers.") + key] = std::to_string(
        static_cast<uint64_t>(total));
  }
  for (NodeId n = 0; n < stats.size(); ++n) {
    if (stats[n].at("applied") < static_cast<double>(acked_puts)) {
      out->Fail("node " + std::to_string(n) + " applied " +
                std::to_string(stats[n].at("applied")) + " < " +
                std::to_string(acked_puts) + " acknowledged puts");
    }
    if (stats[n].at("suspect_msgs") != 0) {
      out->Fail("node " + std::to_string(n) + " rejected suspect messages");
    }
  }
}

void Account(const SegmentResult& seg, RunResult* out) {
  out->attempted += seg.attempted;
  out->failed += seg.failures();
}

double P(std::vector<double> v, double p) { return Percentile(v, p); }

/// Ladder scan for max_rate_ops: from the workload's start rung, step up
/// one rung (5%) at a time while each probe meets the p99 limit with
/// every op answered and no backlog beyond what the limit allows. A
/// probe stops sending once an op has waited twice the limit (it has
/// failed by then), so overload probes drain instead of timing out. A
/// failing rung is probed once more before the scan stops, so a single
/// noisy probe does not end it. Returns the last rung that passed.
double MaxRate(OpenLoopClient* client, const Spec& spec,
               SegmentOptions probe, RunResult* out) {
  const double limit_ns = spec.p99_limit_ms * 1e6;
  probe.abort_after_ns = static_cast<int64_t>(2 * limit_ns);
  auto passes = [&](int rung) {
    probe.rate = RungRate(rung);
    const SegmentResult seg = client->RunSegment(probe);
    Account(seg, out);
    const bool ok =
        !seg.aborted && seg.failures() == 0 &&
        P(seg.latency_ns, 99) <= limit_ns &&
        static_cast<double>(seg.outstanding_at_last_send) <=
            std::max(1.0, probe.rate * limit_ns / 1e9);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return ok;
  };
  auto passes_twice = [&](int rung) { return passes(rung) || passes(rung); };
  int rung = spec.start_rung;
  if (!passes_twice(rung)) {
    // Capacity fell below the start rung: scan down instead.
    while (--rung >= 0 && !passes_twice(rung)) {
    }
    return rung >= 0 ? RungRate(rung) : 0;
  }
  while (rung + 1 < kLadderRungs && passes_twice(rung + 1)) ++rung;
  return RungRate(rung);
}

/// Spawns a cluster, commits its first op and shuts it down again.
/// Returns the set-up time, or a negative value.
double SetupOnly(const RunConfig& config, const Spec& spec, int attempt,
                 RunResult* out) {
  std::unique_ptr<RealCluster> cluster = MakeCluster(config, spec, attempt);
  std::string error;
  const double setup_s = StartAndFirstCommit(
      cluster.get(), config.seed * 100 + static_cast<uint64_t>(attempt),
      &error);
  if (setup_s < 0) out->Fail(error);
  const Status st = cluster->ShutdownAll();
  if (!st.ok()) out->Fail("shutdown: " + st.ToString());
  return setup_s;
}

/// Runs `body` against a fresh cluster that has committed its first op
/// and finished its start-up catch-up, with a connected client, then
/// runs the correctness checks and shuts the cluster down. Returns the
/// set-up time (spawn until the first commit), or a negative value.
template <typename Body>
double WithCluster(const RunConfig& config, const Spec& spec, int attempt,
                   RunResult* out, Body body) {
  std::unique_ptr<RealCluster> cluster = MakeCluster(config, spec, attempt);
  std::string error;
  const double setup_s = StartAndFirstCommit(
      cluster.get(), config.seed * 100 + static_cast<uint64_t>(attempt),
      &error);
  if (setup_s < 0 || !AwaitBootCatchUp(cluster.get(), &error)) {
    out->Fail(error);
    return -1;
  }
  OpenLoopClient client(config.seed * 100 + static_cast<uint64_t>(attempt),
                        /*client_id_base=*/7100, kValueBytes);
  std::vector<dpaxos::HostPort> endpoints;
  for (NodeId n : spec.conn_targets) endpoints.push_back(cluster->endpoint(n));
  Status st = client.Connect(endpoints);
  if (!st.ok()) {
    out->Fail("client connect: " + st.ToString());
    return -1;
  }
  body(cluster.get(), &client);

  for (const auto& [error, count] : client.errors()) {
    out->info["errors." + error] = std::to_string(count);
  }
  CheckCluster(cluster.get(), client.acked_puts(), out);
  std::vector<std::string> violations;
  out->info["gets_checked"] = std::to_string(client.CheckReads(&violations));
  for (size_t i = 0; i < violations.size() && i < 5; ++i) {
    out->Fail(violations[i]);
  }
  if (violations.size() > 5) {
    out->Fail(std::to_string(violations.size()) + " read violations in all");
  }
  st = cluster->ShutdownAll();
  if (!st.ok()) out->Fail("shutdown: " + st.ToString());
  return setup_s;
}

/// Sum of the servers' peak resident sets. The peak, not the current
/// RSS: every compaction briefly holds a serialized copy of the KV, so
/// an instantaneous sample depends on where it lands in that cycle.
double ClusterPeakRssMb(RealCluster* cluster) {
  double rss = 0;
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    rss += PeakRssMb(cluster->pid(n));
  }
  return rss;
}

/// One latency window: its median and the share of CPU time the
/// hypervisor gave to other guests while it ran.
struct Window {
  double p50_ms = 0;
  double steal = 0;
};

Window RunWindow(OpenLoopClient* client, const SegmentOptions& options,
                 RunResult* out) {
  const CpuTimes before = ReadCpuTimes();
  const SegmentResult seg = client->RunSegment(options);
  const CpuTimes after = ReadCpuTimes();
  Account(seg, out);
  Window w;
  w.p50_ms = Ms(P(seg.latency_ns, 50));
  if (after.total > before.total) {
    w.steal = (after.steal - before.steal) / (after.total - before.total);
  }
  return w;
}

/// The median over the half of the windows with the least CPU steal. On
/// a shared VM, steal comes in bursts and stretches every wake-up in the
/// serving path; a window it hit measures the neighbours, not the
/// program. /proc/stat counts steal directly, so the choice needs no
/// threshold.
double LeastStolenP50(std::vector<Window> windows) {
  std::stable_sort(windows.begin(), windows.end(),
                   [](const Window& a, const Window& b) {
                     return a.steal < b.steal;
                   });
  std::vector<double> p50s;
  for (size_t i = 0; i < (windows.size() + 1) / 2; ++i) {
    p50s.push_back(windows[i].p50_ms);
  }
  return Median(p50s);
}

}  // namespace

RunResult RunRealnet(const RunConfig& config) {
  RunResult out;
  const Spec* spec = nullptr;
  for (const Spec& s : Specs()) {
    if (config.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    out.Fail("unknown realnet workload " + config.workload);
    return out;
  }
  out.info["reactors_per_node"] = std::to_string(kReactors);
  out.info["injected_delay_ms"] = "0";
  out.info["cluster"] = "2 zones x 2 nodes, LeaderZone, loopback";
  out.info["connections"] = std::to_string(spec->conn_targets.size());
  out.info["light_rate_ops"] = std::to_string(spec->light_rate);
  out.info["heavy_rate_ops"] = std::to_string(spec->heavy_rate);
  out.info["p99_limit_ms"] = std::to_string(spec->p99_limit_ms);

  // Segment lengths scale with --seconds. The warm-up is not measured.
  const double s = config.seconds;
  SegmentOptions warmup;
  warmup.get_fraction = spec->get_fraction;
  warmup.key_space = spec->key_space;
  warmup.rate = spec->heavy_rate;
  warmup.seconds = std::max(0.3, 0.025 * s);
  SegmentOptions light = warmup;
  light.rate = spec->light_rate;
  SegmentOptions heavy = warmup;
  SegmentOptions probe = warmup;
  probe.seconds = std::max(0.3, 0.05 * s);

  if (config.sweep) {
    // Capacity survey used to pick the fixed rates: every other ladder
    // rung for one second each, until p99 passes 20x the limit.
    WithCluster(config, *spec, 0, &out,
                [&](RealCluster*, OpenLoopClient* client) {
      Account(client->RunSegment(warmup), &out);
      probe.seconds = 1;
      for (int rung = 0; rung < kLadderRungs; rung += 2) {
        probe.rate = RungRate(rung);
        const SegmentResult r = client->RunSegment(probe);
        std::fprintf(stderr,
                     "rate %8.0f  p50 %8.3f ms  p99 %8.3f ms  failed %llu\n",
                     probe.rate, Ms(P(r.latency_ns, 50)),
                     Ms(P(r.latency_ns, 99)),
                     static_cast<unsigned long long>(r.failures()));
        if (r.failures() > 0 ||
            Ms(P(r.latency_ns, 99)) > 20 * spec->p99_limit_ms) {
          break;
        }
      }
    });
    return out;
  }

  if (!config.trace) {
    // Set-up is timed on throw-away clusters first; the last one takes
    // the load: short heavy windows, so a burst of host noise lands in a
    // minority of them, then the ladder scan.
    heavy.seconds = 0.025 * s;
    std::vector<double> setups;
    std::vector<Window> windows;
    double rss = 0, max_rate = 0;
    for (int attempt = 0; attempt + 1 < kSetups; ++attempt) {
      const double setup_s = SetupOnly(config, *spec, attempt, &out);
      if (setup_s < 0) return out;
      setups.push_back(setup_s);
    }
    const double setup_s = WithCluster(
        config, *spec, kSetups - 1, &out,
        [&](RealCluster* cluster, OpenLoopClient* client) {
          Account(client->RunSegment(warmup), &out);
          for (int w = 0; w < kWindows; ++w) {
            windows.push_back(RunWindow(client, heavy, &out));
          }
          rss = ClusterPeakRssMb(cluster);
          max_rate = MaxRate(client, *spec, probe, &out);
        });
    if (setup_s < 0) return out;
    setups.push_back(setup_s);
    out.Set("p50_ms.heavy", LeastStolenP50(windows), "ms");
    out.Set("max_rate_ops", max_rate, "1/s");
    out.Set("setup_s", Median(setups), "s");
    out.Set("rss_mb", rss, "MB");
    return out;
  }

  // Traced run: one cluster, longer segments; the heavy one is
  // bracketed by probes.
  light.seconds = heavy.seconds = 0.2 * s;
  WithCluster(config, *spec, 0, &out,
              [&](RealCluster* cluster, OpenLoopClient* client) {
    Account(client->RunSegment(warmup), &out);
    const SegmentResult l = client->RunSegment(light);
    Account(l, &out);
    const int64_t t0 = NowNs();
    const Snapshot a = Sample(cluster);
    const int64_t t1 = NowNs();
    const SegmentResult h = client->RunSegment(heavy);
    const int64_t t2 = NowNs();
    const Snapshot b = Sample(cluster);
    const int64_t t3 = NowNs();
    Account(h, &out);
    LayerMetrics(*spec, a, b, h, &out);
    std::vector<double> lag = l.send_lag_ns;
    lag.insert(lag.end(), h.send_lag_ns.begin(), h.send_lag_ns.end());
    out.Set("client.p50_ms.light", Ms(P(l.latency_ns, 50)), "ms");
    out.Set("client.p99_ms.light", Ms(P(l.latency_ns, 99)), "ms");
    out.Set("client.p99_ms.heavy", Ms(P(h.latency_ns, 99)), "ms");
    out.Set("client.send_lag_ms.p50", Ms(P(lag, 50)), "ms");
    out.Set("client.send_lag_ms.p99", Ms(P(lag, 99)), "ms");
    const double read_p50 = Ms(P(l.read_latency_ns, 50));
    const double write_p50 = Ms(P(l.write_latency_ns, 50));
    out.Set("client.read_p50_ms", read_p50, "ms");
    out.Set("client.write_p50_ms", write_p50, "ms");
    out.Set("client.read_minus_write_p50_ms",
            l.read_latency_ns.empty() ? 0 : read_p50 - write_p50, "ms");
    // The probes run between segments, never during one, so they cannot
    // delay a measured op; their cost is their own time relative to the
    // segment they bracket.
    out.Set("trace.overhead_ratio",
            static_cast<double>((t1 - t0) + (t3 - t2)) /
                static_cast<double>(t2 - t1),
            "ratio");
    std::vector<double> sync;
    if (spec->durable) {
      const double appends = StatDelta(a, b, 0, "wal_appends");
      const size_t record =
          appends > 0
              ? static_cast<size_t>(StatDelta(a, b, 0, "wal_bytes") / appends)
              : 64;
      sync = ProbeSync(cluster->node_data_dir(0), record, 200);
      if (sync.empty()) out.Fail("storage probe I/O error");
    }
    out.Set("storage.sync_ms.p50", Ms(P(sync, 50)), "ms");
    out.Set("storage.sync_ms.p99", Ms(P(sync, 99)), "ms");
  });
  out.Set("client.failed_ratio",
          static_cast<double>(out.failed) /
              std::max<double>(1, static_cast<double>(out.attempted)),
          "ratio");
  return out;
}

}  // namespace perfbench
