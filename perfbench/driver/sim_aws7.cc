// sim-aws7: the deterministic simulator on the paper's seven-region
// Table-1 topology (LeaderZone, ft{1,0}), one proposer in zone 0 driven
// closed-loop with 1 KiB batches, one thread.
//
// The cluster is composed here from the same public parts harness/Cluster
// wires together (Simulator, SimTransport, QuorumSystem, NodeHost,
// Replica), plus a LogApplier + KvStateMachine per replica. In the traced
// run the transport and the state machine are wrapped in span-recording
// decorators of their public interfaces; untraced runs hand the replicas
// the bare SimTransport.
//
// The seed picks the network jitter and the batch contents, so each seed
// is its own exact virtual-time history: event counts and commit
// latencies repeat bit for bit, which the run checks.
#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common.h"
#include "net/topology.h"
#include "net/transport.h"
#include "paxos/messages.h"
#include "paxos/node_host.h"
#include "paxos/replica.h"
#include "quorum/quorum_system.h"
#include "sim/simulator.h"
#include "smr/kv_store.h"
#include "smr/log_applier.h"
#include "txn/transaction.h"

namespace perfbench {

using namespace dpaxos;

namespace {

constexpr uint32_t kHeavyWindow = 32;
constexpr uint32_t kLightWindow = 1;
constexpr size_t kBatchBytes = 1024;
constexpr Duration kMaxJitter = 1 * kMillisecond;
/// Virtual run length of one heavy (window 32) and light (window 1) run.
constexpr Duration kHeavyVirtual = 10 * kSecond;
constexpr Duration kLightVirtual = 10 * kSecond;

/// Span totals gathered by the tracing decorators.
struct Spans {
  int depth = 0;
  double top_ns = 0;      ///< spans entered at depth 0 (direct sim events)
  double handler_ns = 0;  ///< every delivery handler span
  double child_ns = 0;    ///< Send/Apply spans nested inside handlers
  double apply_ns = 0;
  uint64_t applies = 0;
  uint64_t handled = 0;
  uint64_t sent = 0;
  uint64_t bytes = 0;
  /// Keyed by Message::TypeName(), whose strings are literals.
  std::unordered_map<const char*, std::pair<uint64_t, double>> by_type;
  /// Slot -> virtual time of the leader's first propose for it.
  std::map<SlotId, Timestamp> first_propose;
};

/// Records a span around every Send and every delivery.
class TracingTransport final : public Transport {
 public:
  TracingTransport(Transport* inner, Spans* spans, const Simulator* sim,
                   NodeId leader)
      : inner_(inner), spans_(spans), sim_(sim), leader_(leader) {}

  void RegisterHandler(NodeId node, Handler handler) override {
    inner_->RegisterHandler(
        node, [this, h = std::move(handler)](NodeId from,
                                            const MessagePtr& msg) {
          const int64_t start = NowNs();
          ++spans_->depth;
          h(from, msg);
          --spans_->depth;
          const double ns = static_cast<double>(NowNs() - start);
          spans_->handler_ns += ns;
          if (spans_->depth == 0) spans_->top_ns += ns;
          ++spans_->handled;
          auto& entry = spans_->by_type[msg->TypeName()];
          ++entry.first;
          entry.second += ns;
        });
  }

  void Send(NodeId from, NodeId to, MessagePtr msg) override {
    ++spans_->sent;
    spans_->bytes += msg->SizeBytes();
    if (from == leader_) {
      if (const auto* p = dynamic_cast<const ProposeMsg*>(msg.get())) {
        spans_->first_propose.emplace(p->slot, sim_->Now());
      }
    }
    const int64_t start = NowNs();
    inner_->Send(from, to, std::move(msg));
    const double ns = static_cast<double>(NowNs() - start);
    if (spans_->depth > 0) {
      spans_->child_ns += ns;
    } else {
      spans_->top_ns += ns;
    }
  }

 private:
  Transport* inner_;
  Spans* spans_;
  const Simulator* sim_;
  NodeId leader_;
};

/// Records a span around every StateMachine::Apply.
class TracingStateMachine final : public StateMachine {
 public:
  TracingStateMachine(StateMachine* inner, Spans* spans)
      : inner_(inner), spans_(spans) {}
  void Apply(SlotId slot, const std::string& payload) override {
    const int64_t start = NowNs();
    inner_->Apply(slot, payload);
    const double ns = static_cast<double>(NowNs() - start);
    spans_->apply_ns += ns;
    ++spans_->applies;
    if (spans_->depth > 0) {
      spans_->child_ns += ns;
    } else {
      spans_->top_ns += ns;
    }
  }

 private:
  StateMachine* inner_;
  Spans* spans_;
};

/// Seeded 1 KiB batches of 50 B puts, generated before the clock starts.
std::vector<std::string> MakeBatches(uint64_t seed, size_t count) {
  SeededRng rng(seed ^ 0x51ed5eedULL);
  std::vector<std::string> out;
  uint64_t txn_id = 1;
  for (size_t b = 0; b < count; ++b) {
    std::vector<Transaction> txns;
    std::string payload;
    while (payload.size() < kBatchBytes) {
      Transaction txn;
      txn.id = txn_id++;
      std::string value(50, 'a');
      for (char& c : value) c = static_cast<char>('a' + rng.Below(26));
      std::string key = "s";
      key += std::to_string(rng.Below(4096));
      txn.ops.push_back(Operation::Put(std::move(key), std::move(value)));
      txns.push_back(std::move(txn));
      payload = EncodeBatch(txns);
    }
    out.push_back(std::move(payload));
  }
  return out;
}

/// Everything one composed run produced.
struct SimRun {
  double setup_ns = 0;  ///< construction until the first commit (wall)
  double run_ns = 0;    ///< the closed loop (wall)
  double virtual_s = 0;  ///< the closed loop (virtual time)
  uint64_t events = 0;
  uint64_t commits = 0;
  uint64_t failed = 0;
  std::vector<double> vcommit_us;
  std::vector<double> vwait_us;
  Spans spans;
  bool ok = true;
  std::string error;
};

SimRun RunOnce(uint64_t seed, uint32_t window, Duration virtual_length,
               const std::vector<std::string>& batches, bool trace) {
  SimRun run;
  const int64_t t0 = NowNs();
  const Topology topology = Topology::AwsSevenZones();
  Simulator sim(seed);
  sim.Reserve(16384 + 2048);
  SimTransportOptions transport_options;
  transport_options.max_jitter = kMaxJitter;
  transport_options.initial_delivery_batches = 8192 + 512;
  SimTransport sim_transport(&sim, &topology, transport_options);
  const NodeId leader = topology.NodesInZone(0).front();
  TracingTransport tracing(&sim_transport, &run.spans, &sim, leader);
  Transport* transport = trace ? static_cast<Transport*>(&tracing)
                               : static_cast<Transport*>(&sim_transport);
  std::unique_ptr<QuorumSystem> quorums = MakeQuorumSystem(
      ProtocolMode::kLeaderZone, &topology, FaultTolerance{1, 0});
  ReplicaConfig config;
  config.max_inflight = kHeavyWindow;
  config.decide_policy = DecidePolicy::kQuorum;

  const uint32_t n = topology.num_nodes();
  std::vector<std::unique_ptr<NodeHost>> hosts;
  std::vector<std::unique_ptr<KvStateMachine>> kvs;
  std::vector<std::unique_ptr<TracingStateMachine>> traced_kvs;
  std::vector<std::unique_ptr<LogApplier>> appliers;
  for (NodeId node = 0; node < n; ++node) {
    hosts.push_back(
        std::make_unique<NodeHost>(&sim, transport, &topology, node));
    Replica* replica = hosts.back()->AddReplica(quorums.get(), config);
    kvs.push_back(std::make_unique<KvStateMachine>());
    StateMachine* sm = kvs.back().get();
    if (trace) {
      traced_kvs.push_back(
          std::make_unique<TracingStateMachine>(sm, &run.spans));
      sm = traced_kvs.back().get();
    }
    appliers.push_back(std::make_unique<LogApplier>(sm));
    LogApplier* applier = appliers.back().get();
    replica->set_decide_callback(
        [applier](SlotId slot, const Value& value) {
          applier->OnDecided(slot, value);
        });
  }
  Replica* proposer = hosts[leader]->replica(0);

  std::optional<Status> elected;
  proposer->TryBecomeLeader([&](const Status& st) { elected = st; });
  while (!elected.has_value() && sim.Step()) {
  }
  if (!elected.has_value() || !elected->ok()) {
    run.ok = false;
    run.error = "election failed";
    return run;
  }
  uint64_t next_id = 1;
  size_t next_batch = 0;
  auto next_value = [&]() {
    Value v = Value::Of(next_id++, batches[next_batch]);
    next_batch = (next_batch + 1) % batches.size();
    return v;
  };
  std::optional<Status> first;
  proposer->Submit(next_value(), [&](const Status& st, SlotId, Duration) {
    first = st;
  });
  while (!first.has_value() && sim.Step()) {
  }
  if (!first.has_value() || !first->ok()) {
    run.ok = false;
    run.error = "first commit failed";
    return run;
  }
  run.setup_ns = static_cast<double>(NowNs() - t0);

  // Closed loop: each completion funds the next submit until the
  // virtual deadline; then the outstanding window drains.
  const Timestamp deadline = sim.Now() + virtual_length;
  run.vcommit_us.reserve(200000);
  uint32_t outstanding = 0;
  std::function<void()> issue = [&]() {
    if (sim.Now() >= deadline) return;
    ++outstanding;
    proposer->Submit(next_value(), [&](const Status& st, SlotId slot,
                                       Duration latency) {
      if (st.ok()) {
        ++run.commits;
        run.vcommit_us.push_back(static_cast<double>(latency));
        if (trace) {
          auto it = run.spans.first_propose.find(slot);
          if (it != run.spans.first_propose.end()) {
            run.vwait_us.push_back(static_cast<double>(sim.Now() - it->second));
            run.spans.first_propose.erase(it);
          }
        }
      } else {
        ++run.failed;
      }
      --outstanding;
      issue();
    });
  };
  if (trace) run.spans = Spans{};
  const int64_t t1 = NowNs();
  const Timestamp v1 = sim.Now();
  for (uint32_t i = 0; i < window; ++i) issue();
  while (outstanding > 0 && sim.Step()) ++run.events;
  run.run_ns = static_cast<double>(NowNs() - t1);
  run.virtual_s = static_cast<double>(sim.Now() - v1) / 1e6;
  return run;
}

/// Bit-exact fingerprint of a run's virtual-time results.
std::string Fingerprint(const SimRun& run) {
  std::vector<double> v = run.vcommit_us;
  return std::to_string(run.events) + "/" + std::to_string(run.commits) +
         "/" + std::to_string(Percentile(v, 50)) + "/" +
         std::to_string(Percentile(v, 99));
}

double PeakRssMb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

RunResult RunSimAws7(const RunConfig& config) {
  RunResult out;
  out.info["topology"] = "AwsSevenZones x3 nodes, LeaderZone, ft{1,0}";
  out.info["window"] = std::to_string(kHeavyWindow);
  out.info["batch_bytes"] = std::to_string(kBatchBytes);
  out.info["max_jitter_ms"] = std::to_string(kMaxJitter / kMillisecond);
  out.info["threads"] = "1";
  const std::vector<std::string> batches = MakeBatches(config.seed, 512);

  std::vector<double> setups, events_per_s, heavy_run_ns;
  std::string heavy_print, light_print;
  SimRun heavy, light;
  const int64_t budget_end =
      NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  int repeats = 0;
  // At least three repeats, so the median and the determinism check
  // always have something to compare.
  while (repeats < 3 || NowNs() < budget_end) {
    light = RunOnce(config.seed, kLightWindow, kLightVirtual, batches, false);
    heavy = RunOnce(config.seed, kHeavyWindow, kHeavyVirtual, batches, false);
    if (!light.ok || !heavy.ok) {
      out.Fail("sim run failed: " + light.error + heavy.error);
      return out;
    }
    setups.push_back(light.setup_ns / 1e9);
    setups.push_back(heavy.setup_ns / 1e9);
    events_per_s.push_back(static_cast<double>(heavy.events) /
                           (heavy.run_ns / 1e9));
    heavy_run_ns.push_back(heavy.run_ns);
    out.attempted +=
        heavy.commits + heavy.failed + light.commits + light.failed;
    out.failed += heavy.failed + light.failed;
    const std::string hp = Fingerprint(heavy), lp = Fingerprint(light);
    if (repeats == 0) {
      heavy_print = hp;
      light_print = lp;
    } else if (hp != heavy_print || lp != light_print) {
      out.Fail("virtual-time results differ across repeats of one seed: " +
               heavy_print + " vs " + hp);
    }
    ++repeats;
  }
  out.info["repeats"] = std::to_string(repeats);
  out.info["events_per_run"] = std::to_string(heavy.events);
  out.info["commits_per_run"] = std::to_string(heavy.commits);

  if (!config.trace) {
    out.Set("p50_ms.heavy", Percentile(heavy.vcommit_us, 50) / 1e3, "ms");
    out.Set("max_rate_ops",
            static_cast<double>(heavy.commits) / heavy.virtual_s, "1/s");
    out.Set("setup_s", Median(setups), "s");
    out.Set("rss_mb", PeakRssMb(), "MB");
    return out;
  }

  // Traced run: the same heavy run under the span decorators. Wrappers
  // must not move virtual time.
  SimRun traced =
      RunOnce(config.seed, kHeavyWindow, kHeavyVirtual, batches, true);
  if (!traced.ok || Fingerprint(traced) != heavy_print) {
    out.Fail("traced run changed the virtual-time results");
  }
  const Spans& s = traced.spans;
  const double events = std::max<double>(1, static_cast<double>(traced.events));
  const double commits =
      std::max<double>(1, static_cast<double>(traced.commits));
  // A repeat's work is fixed per seed and host noise (steal, a busy
  // hyperthread sibling) only slows it, so the fastest repeat measures
  // the program.
  out.Set("sim.events_per_s",
          *std::max_element(events_per_s.begin(), events_per_s.end()),
          "1/s");
  out.Set("sim.self_ns_per_event", (traced.run_ns - s.top_ns) / events, "ns");
  out.Set("sim.events_per_commit", events / commits, "count");
  out.Set("paxos.handler_ns_per_msg",
          s.handled > 0 ? (s.handler_ns - s.child_ns) /
                              static_cast<double>(s.handled)
                        : 0,
          "ns");
  std::map<std::string, std::pair<uint64_t, double>> by_type;
  for (const auto& [type, entry] : s.by_type) {
    by_type[type].first += entry.first;
    by_type[type].second += entry.second;
  }
  for (const char* type : {"propose", "accept", "decide"}) {
    auto it = by_type.find(type);
    const double ns = it == by_type.end() || it->second.first == 0
                          ? 0
                          : it->second.second /
                                static_cast<double>(it->second.first);
    out.Set(std::string("paxos.handler_ns.") + type, ns, "ns");
  }
  out.Set("paxos.msgs_per_commit", static_cast<double>(s.sent) / commits,
          "count");
  out.Set("paxos.bytes_per_commit", static_cast<double>(s.bytes) / commits,
          "B");
  out.Set("smr.apply_ns_per_op",
          s.applies > 0 ? s.apply_ns / static_cast<double>(s.applies) : 0,
          "ns");
  out.Set("client.p50_ms.light", Percentile(light.vcommit_us, 50) / 1e3, "ms");
  out.Set("client.p99_ms.light", Percentile(light.vcommit_us, 99) / 1e3, "ms");
  out.Set("client.p99_ms.heavy", Percentile(traced.vcommit_us, 99) / 1e3, "ms");
  std::vector<double> vwait = traced.vwait_us;
  out.Set("quorum.vwait_ms.p50", Percentile(vwait, 50) / 1e3, "ms");
  out.Set("trace.overhead_ratio", traced.run_ns / Median(heavy_run_ns) - 1.0,
          "ratio");
  for (const auto& [type, entry] : by_type) {
    out.info["msgs." + type] = std::to_string(entry.first);
  }
  return out;
}

}  // namespace perfbench
