#include "harness/load_gen.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/tcp/event_loop.h"
#include "net/tcp/framing.h"

namespace dpaxos {

namespace {

constexpr Duration kRedialDelay = 100 * kMillisecond;
constexpr Duration kArrivalTick = 1 * kMillisecond;
/// Duration-mode grace for draining in-flight requests past the end.
constexpr Duration kDrainGrace = 5 * kSecond;

class Driver {
 public:
  explicit Driver(const LoadGenOptions& options)
      : options_(options), loop_(options.seed) {}

  Result<LoadGenResult> Run();

 private:
  struct GenConn {
    uint32_t index = 0;
    size_t endpoint = 0;
    uint64_t client_id = 0;
    int fd = -1;
    bool established = false;
    bool want_write = false;
    bool flush_scheduled = false;
    uint64_t next_request_id = 1;
    FrameDecoder decoder;
    OutQueue out;
    /// request_id -> intended arrival (open loop) / issue time (closed).
    std::unordered_map<uint64_t, Timestamp> inflight;
    EventId redial_timer = 0;
  };

  void Dial(GenConn* conn);
  void ScheduleRedial(GenConn* conn);
  void ConnEvent(GenConn* conn, uint32_t events);
  void ReadReady(GenConn* conn);
  void OnReply(GenConn* conn, const ClientReply& reply);
  void OnConnError(GenConn* conn);
  void IssueOp(GenConn* conn, Timestamp intended_start);
  void TopUpClosedLoop(GenConn* conn);
  void IssueDueArrivals();
  void ScheduleArrivalTick();
  void ScheduleFlush(GenConn* conn);
  void FlushConn(GenConn* conn);
  bool StopIssuing() const;
  bool Done() const;
  uint64_t InflightTotal() const;

  const LoadGenOptions& options_;
  EventLoop loop_;
  std::vector<std::unique_ptr<GenConn>> conns_;
  Timestamp start_ = 0;
  uint64_t ops_issued_ = 0;
  uint64_t arrivals_issued_ = 0;  ///< open loop: arrivals already assigned
  uint64_t next_value_ = 1;
  uint64_t ops_ok_ = 0;
  uint64_t ops_failed_ = 0;
  uint64_t conn_errors_ = 0;
  Histogram latency_;
};

bool Driver::StopIssuing() const {
  if (options_.total_ops > 0) return ops_issued_ >= options_.total_ops;
  return loop_.Now() >= start_ + options_.duration;
}

uint64_t Driver::InflightTotal() const {
  uint64_t n = 0;
  for (const auto& conn : conns_) n += conn->inflight.size();
  return n;
}

bool Driver::Done() const {
  if (options_.total_ops > 0) {
    return ops_ok_ + ops_failed_ >= options_.total_ops;
  }
  if (loop_.Now() < start_ + options_.duration) return false;
  return InflightTotal() == 0 ||
         loop_.Now() >= start_ + options_.duration + kDrainGrace;
}

void Driver::Dial(GenConn* conn) {
  Result<int> fd = StartConnect(options_.endpoints[conn->endpoint]);
  if (!fd.ok()) {
    ++conn_errors_;
    ScheduleRedial(conn);
    return;
  }
  conn->fd = fd.value();
  conn->established = false;
  conn->want_write = true;  // EPOLLOUT armed to learn connect completion
  conn->decoder = FrameDecoder();
  conn->out.Clear();
  Status st = loop_.WatchFd(conn->fd, EPOLLIN | EPOLLOUT,
                            [this, conn](uint32_t ev) { ConnEvent(conn, ev); });
  if (!st.ok()) OnConnError(conn);
}

void Driver::ScheduleRedial(GenConn* conn) {
  if (conn->redial_timer != 0) return;
  conn->redial_timer = loop_.Schedule(kRedialDelay, [this, conn]() {
    conn->redial_timer = 0;
    // Rotate endpoints so a dead replica doesn't pin this connection.
    conn->endpoint = (conn->endpoint + 1) % options_.endpoints.size();
    if (!Done()) Dial(conn);
  });
}

void Driver::ConnEvent(GenConn* conn, uint32_t events) {
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    OnConnError(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!conn->established) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        OnConnError(conn);
        return;
      }
      SetNoDelay(conn->fd);
      conn->established = true;
      Hello hello;
      hello.kind = PeerKind::kClient;
      hello.id = conn->client_id;
      conn->out.Push(EncodeHelloFrame(hello));
      if (options_.rate == 0) TopUpClosedLoop(conn);
    }
    FlushConn(conn);
    if (conn->fd < 0) return;  // flush error closed it
  }
  if ((events & EPOLLIN) != 0) ReadReady(conn);
}

void Driver::ReadReady(GenConn* conn) {
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
      std::string_view body;
      for (;;) {
        const FrameDecoder::Next next = conn->decoder.Pop(&body);
        if (next == FrameDecoder::Next::kNeedMore) break;
        if (next == FrameDecoder::Next::kError) {
          OnConnError(conn);
          return;
        }
        Result<ClientReply> reply = ParseClientReply(body);
        if (!reply.ok()) {
          OnConnError(conn);
          return;
        }
        OnReply(conn, reply.value());
        if (conn->fd < 0) return;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    OnConnError(conn);
    return;
  }
}

void Driver::OnReply(GenConn* conn, const ClientReply& reply) {
  auto it = conn->inflight.find(reply.request_id);
  if (it == conn->inflight.end()) return;  // stale (post-redial) reply
  const Timestamp intended = it->second;
  conn->inflight.erase(it);
  if (reply.status_code == 0) {
    ++ops_ok_;
    latency_.Add(loop_.Now() - intended);
  } else {
    ++ops_failed_;
  }
  if (options_.rate == 0) TopUpClosedLoop(conn);
}

void Driver::OnConnError(GenConn* conn) {
  if (conn->fd < 0) return;
  ++conn_errors_;
  // In-flight requests die with the connection: counted as failures,
  // never retried (an open-loop driver measures, it doesn't heal).
  ops_failed_ += conn->inflight.size();
  conn->inflight.clear();
  loop_.UnwatchFd(conn->fd);
  close(conn->fd);
  conn->fd = -1;
  conn->established = false;
  conn->want_write = false;
  conn->out.Clear();
  ScheduleRedial(conn);
}

void Driver::IssueOp(GenConn* conn, Timestamp intended_start) {
  ClientRequest req;
  req.request_id = conn->next_request_id++;
  req.op = ClientOp::kPut;
  req.key = options_.key_prefix +
            std::to_string(loop_.rng().NextBounded(
                options_.key_space == 0 ? 1 : options_.key_space));
  req.value = "v" + std::to_string(next_value_++);
  conn->inflight.emplace(req.request_id, intended_start);
  conn->out.Push(EncodeClientRequestFrame(req));
  ++ops_issued_;
  ScheduleFlush(conn);
}

void Driver::TopUpClosedLoop(GenConn* conn) {
  if (!conn->established) return;
  while (conn->inflight.size() < options_.pipeline && !StopIssuing()) {
    IssueOp(conn, loop_.Now());
  }
}

void Driver::IssueDueArrivals() {
  const Timestamp now = loop_.Now();
  const double per_op_us = 1e6 / options_.rate;
  const uint64_t target = static_cast<uint64_t>(
      static_cast<double>(now - start_) / per_op_us);
  while (arrivals_issued_ < target && !StopIssuing()) {
    // The arrival clock, not the send time, is the latency origin: if
    // every connection is at its pipeline cap the arrival simply waits,
    // and the wait is charged to the op (no coordinated omission).
    GenConn* picked = nullptr;
    for (size_t probe = 0; probe < conns_.size(); ++probe) {
      GenConn* cand =
          conns_[(arrivals_issued_ + probe) % conns_.size()].get();
      if (cand->established && cand->inflight.size() < options_.pipeline) {
        picked = cand;
        break;
      }
    }
    if (picked == nullptr) return;  // all saturated; arrears carry over
    const Timestamp intended =
        start_ + static_cast<Timestamp>(arrivals_issued_ * per_op_us);
    ++arrivals_issued_;
    IssueOp(picked, intended);
  }
}

void Driver::ScheduleArrivalTick() {
  loop_.Schedule(kArrivalTick, [this]() {
    IssueDueArrivals();
    if (!StopIssuing()) ScheduleArrivalTick();
  });
}

void Driver::ScheduleFlush(GenConn* conn) {
  if (conn->flush_scheduled) return;
  conn->flush_scheduled = true;
  // 0-delay: all frames staged in this dispatch round share one flush.
  loop_.Schedule(0, [this, conn]() {
    conn->flush_scheduled = false;
    if (conn->fd >= 0 && conn->established) FlushConn(conn);
  });
}

void Driver::FlushConn(GenConn* conn) {
  GatherWriteStats ws;
  const GatherWriteResult result = GatherWrite(conn->fd, &conn->out, &ws);
  if (result == GatherWriteResult::kFailed) {
    OnConnError(conn);
    return;
  }
  const bool want_write = result == GatherWriteResult::kBlocked;
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    loop_.UpdateFd(conn->fd, EPOLLIN | (want_write ? EPOLLOUT : 0u));
  }
}

Result<LoadGenResult> Driver::Run() {
  if (options_.endpoints.empty()) {
    return Status::InvalidArgument("load_gen: no endpoints");
  }
  if (options_.connections == 0) {
    return Status::InvalidArgument("load_gen: connections must be >= 1");
  }
  if (options_.total_ops == 0 && options_.duration == 0) {
    return Status::InvalidArgument("load_gen: no total_ops and no duration");
  }
  conns_.reserve(options_.connections);
  for (uint32_t i = 0; i < options_.connections; ++i) {
    auto conn = std::make_unique<GenConn>();
    conn->index = i;
    conn->endpoint = i % options_.endpoints.size();
    conn->client_id = options_.client_id_base + i;
    conns_.push_back(std::move(conn));
  }
  start_ = loop_.Now();
  for (auto& conn : conns_) Dial(conn.get());
  if (options_.rate > 0) ScheduleArrivalTick();
  const bool finished =
      loop_.RunUntil([this]() { return Done(); }, options_.timeout);
  const Timestamp end = loop_.Now();
  // Tear down sockets before the loop goes away.
  for (auto& conn : conns_) {
    if (conn->redial_timer != 0) loop_.Cancel(conn->redial_timer);
    if (conn->fd >= 0) {
      loop_.UnwatchFd(conn->fd);
      close(conn->fd);
      conn->fd = -1;
    }
  }
  LoadGenResult result;
  result.ops_ok = ops_ok_;
  result.ops_failed = ops_failed_ + InflightTotal();
  result.conn_errors = conn_errors_;
  result.elapsed_seconds = static_cast<double>(end - start_) / 1e6;
  result.achieved_ops = result.elapsed_seconds > 0
                            ? static_cast<double>(ops_ok_) /
                                  result.elapsed_seconds
                            : 0;
  result.offered_ops = options_.rate;
  result.latency = std::move(latency_);
  result.completed = finished;
  return result;
}

}  // namespace

Result<LoadGenResult> RunLoadGen(const LoadGenOptions& options) {
  Driver driver(options);
  return driver.Run();
}

}  // namespace dpaxos
