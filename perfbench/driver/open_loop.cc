#include "open_loop.h"

#include <errno.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using dpaxos::ClientOp;
using dpaxos::ClientReply;
using dpaxos::ClientRequest;
using dpaxos::FrameDecoder;
using dpaxos::HostPort;
using dpaxos::Status;
using dpaxos::StatusCode;

namespace {

/// Below this distance to the next intended send the loop stops
/// sleeping and polls without blocking, so wake-up latency does not
/// become send lag.
constexpr int64_t kSpinNs = 30'000;
/// Lead-in between building a segment's schedule and its first send.
constexpr int64_t kLeadInNs = 2'000'000;
/// Longest sleep while only waiting for replies (timeout sweeps).
constexpr int64_t kIdleWaitNs = 5'000'000;
/// An op still unanswered this long after its intended send counts as
/// timed out (failed) and stops being waited for.
constexpr int64_t kOpTimeoutNs = 10'000'000'000;

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

/// Put id carried by a value written by ValueFor(), or 0.
uint64_t PutIdOf(const std::string& value) {
  if (value.size() < 17 || value[0] != 'v') return 0;
  uint64_t id = 0;
  for (size_t i = 1; i < 17; ++i) {
    const char c = value[i];
    id <<= 4;
    if (c >= '0' && c <= '9') {
      id |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      id |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return 0;
    }
  }
  return id;
}

std::string KeyName(uint32_t key) {
  std::string name = "k";
  name += std::to_string(key);
  return name;
}

}  // namespace

OpenLoopClient::OpenLoopClient(uint64_t seed, uint64_t client_id_base,
                               size_t value_bytes)
    : rng_(seed), client_id_base_(client_id_base), value_bytes_(value_bytes) {
  // Seeded filler so the value bytes, too, come from the seed.
  const size_t fill = value_bytes_ > 18 ? value_bytes_ - 18 : 0;
  for (size_t i = 0; i < fill; ++i) {
    filler_.push_back(static_cast<char>('a' + rng_.Below(26)));
  }
  // Default timer slack (50 us) would dominate send lag at light rates.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
}

OpenLoopClient::~OpenLoopClient() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

std::string OpenLoopClient::ValueFor(uint64_t put_id) const {
  return "v" + Hex16(put_id) + "-" + filler_;
}

Status OpenLoopClient::Connect(const std::vector<HostPort>& endpoints) {
  if (epoll_fd_ < 0) return Status::Internal("epoll_create1 failed");
  for (const HostPort& ep : endpoints) {
    dpaxos::Result<int> fd = dpaxos::StartConnect(ep);
    if (!fd.ok()) return fd.status();
    pollfd pfd{fd.value(), POLLOUT, 0};
    int err = 0;
    socklen_t len = sizeof(err);
    if (poll(&pfd, 1, 2000) != 1 ||
        getsockopt(fd.value(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      close(fd.value());
      return Status::Unavailable("connect to " + ep.ToString() + " failed");
    }
    dpaxos::SetNoDelay(fd.value());
    Conn conn;
    conn.fd = fd.value();
    dpaxos::Hello hello;
    hello.kind = dpaxos::PeerKind::kClient;
    hello.id = client_id_base_ + conns_.size();
    conn.out = dpaxos::EncodeHelloFrame(hello);
    conns_.push_back(std::move(conn));
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conns_[i].fd, &ev) != 0) {
      return Status::Internal("epoll_ctl failed");
    }
    if (!Flush(&conns_[i])) return Status::Unavailable("hello write failed");
  }
  return Status::OK();
}

void OpenLoopClient::Send(uint32_t op_index, size_t conn_index) {
  Op& op = ops_[op_index];
  Conn& conn = conns_[conn_index];
  ClientRequest req;
  req.request_id = conn.next_request_id++;
  req.op = op.is_get ? ClientOp::kGet : ClientOp::kPut;
  req.key = KeyName(op.key);
  if (!op.is_get) req.value = ValueFor(op.put_id);
  conn.out += dpaxos::EncodeClientRequestFrame(req);
  conn.inflight.emplace(req.request_id, op_index);
  ++outstanding_;
}

bool OpenLoopClient::Flush(Conn* conn) {
  size_t pos = 0;
  while (pos < conn->out.size()) {
    const ssize_t n = send(conn->fd, conn->out.data() + pos,
                           conn->out.size() - pos, MSG_NOSIGNAL);
    if (n > 0) {
      pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  conn->out.erase(0, pos);
  epoll_event ev{};
  ev.events = conn->out.empty() ? EPOLLIN : (EPOLLIN | EPOLLOUT);
  ev.data.u64 = static_cast<uint64_t>(conn - conns_.data());
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  return true;
}

void OpenLoopClient::Finish(Op* op, bool ok, SegmentResult* result) {
  op->finished = true;
  op->ok = ok;
  op->done_ns = segment_now_ns_;
  --outstanding_;
  if (!ok) {
    ++result->failed;
    return;
  }
  ++result->ok;
  const double latency = static_cast<double>(op->done_ns - op->intended_ns);
  result->latency_ns.push_back(latency);
  if (op->is_get) {
    result->read_latency_ns.push_back(latency);
  } else {
    result->write_latency_ns.push_back(latency);
    ++acked_puts_;
  }
}

void OpenLoopClient::DropConn(Conn* conn, SegmentResult* result) {
  if (conn->fd < 0) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  conn->fd = -1;
  for (const auto& [request_id, index] : conn->inflight) {
    if (!ops_[index].finished) Finish(&ops_[index], false, result);
  }
  conn->inflight.clear();
  conn->out.clear();
}

void OpenLoopClient::ReadReady(Conn* conn, SegmentResult* result) {
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR)) {
      DropConn(conn, result);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    segment_now_ns_ = NowNs();
    conn->decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    std::string_view body;
    for (;;) {
      const FrameDecoder::Next next = conn->decoder.Pop(&body);
      if (next == FrameDecoder::Next::kNeedMore) break;
      dpaxos::Result<ClientReply> reply =
          next == FrameDecoder::Next::kFrame
              ? dpaxos::ParseClientReply(body)
              : dpaxos::Result<ClientReply>(Status::Corruption("frame"));
      if (!reply.ok()) {
        DropConn(conn, result);
        return;
      }
      auto it = conn->inflight.find(reply->request_id);
      if (it == conn->inflight.end()) continue;
      Op& op = ops_[it->second];
      conn->inflight.erase(it);
      if (op.finished) continue;  // already counted as timed out
      const auto code = static_cast<StatusCode>(reply->status_code);
      if (code != StatusCode::kOk &&
          !(op.is_get && code == StatusCode::kNotFound)) {
        ++errors_[std::string(op.is_get ? "get:" : "put:") + reply->value];
      }
      if (op.is_get) {
        const bool ok =
            code == StatusCode::kOk || code == StatusCode::kNotFound;
        op.put_id = code == StatusCode::kOk ? PutIdOf(reply->value) : 0;
        Finish(&op, ok, result);
      } else {
        op.slot = reply->watermark;
        Finish(&op, code == StatusCode::kOk, result);
      }
    }
  }
}

SegmentResult OpenLoopClient::RunSegment(const SegmentOptions& options) {
  SegmentResult result;
  uint64_t count = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(options.rate * options.seconds)));
  const double gap_ns = 1e9 / options.rate;
  const size_t base = ops_.size();
  ops_.reserve(base + count);
  for (uint64_t i = 0; i < count; ++i) {
    Op op;
    op.is_get = options.get_fraction > 0 && rng_.Unit() < options.get_fraction;
    op.key = static_cast<uint32_t>(rng_.Below(options.key_space));
    if (!op.is_get) op.put_id = next_put_id_++;
    ops_.push_back(op);
  }
  const int64_t start = NowNs() + kLeadInNs;
  for (uint64_t i = 0; i < count; ++i) {
    ops_[base + i].intended_ns =
        start + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
  }
  result.attempted = count;
  result.send_lag_ns.reserve(count);
  result.latency_ns.reserve(count);

  size_t next = 0;    // next op (segment-relative) to send
  size_t oldest = 0;  // oldest op that may still be in flight
  bool recorded_backlog = false;
  epoll_event events[16];
  for (;;) {
    int64_t now = NowNs();
    if (next < count && ops_[base + next].intended_ns <= now) {
      const size_t first = next;
      while (next < count && ops_[base + next].intended_ns <= now) {
        const size_t conn_index = next % conns_.size();
        if (conns_[conn_index].fd < 0) {
          // The connection died earlier: the op fails without a send.
          Op& op = ops_[base + next];
          op.sent_ns = now;
          ++outstanding_;
          segment_now_ns_ = now;
          Finish(&op, false, &result);
        } else {
          Send(static_cast<uint32_t>(base + next), conn_index);
        }
        ++next;
      }
      // Send time is stamped as the writes start: lag is the driver's
      // own lateness, and every reply processed later is later than it.
      now = NowNs();
      for (size_t i = first; i < next; ++i) {
        Op& op = ops_[base + i];
        if (op.sent_ns == 0) op.sent_ns = now;
        result.send_lag_ns.push_back(static_cast<double>(now - op.intended_ns));
      }
      for (Conn& conn : conns_) {
        if (conn.fd >= 0 && !conn.out.empty() && !Flush(&conn)) {
          segment_now_ns_ = NowNs();
          DropConn(&conn, &result);
        }
      }
    }
    if (next == count && !recorded_backlog) {
      result.outstanding_at_last_send = outstanding_;
      recorded_backlog = true;
    }
    // Ops past their timeout stop being waited for.
    while (oldest < next && ops_[base + oldest].finished) ++oldest;
    for (size_t i = oldest; i < next; ++i) {
      Op& op = ops_[base + i];
      if (now - op.intended_ns < kOpTimeoutNs) break;
      if (!op.finished) {
        segment_now_ns_ = now;
        Finish(&op, false, &result);
        --result.failed;
        ++result.timed_out;
        ++errors_["timeout"];
      }
    }
    if (options.abort_after_ns > 0 && next < count && oldest < next &&
        !ops_[base + oldest].finished &&
        now - ops_[base + oldest].intended_ns > options.abort_after_ns) {
      result.aborted = true;
      count = next;
      result.attempted = next;
      ops_.resize(base + next);
    }
    if (next == count && outstanding_ == 0) break;

    int64_t wait_ns = next < count ? ops_[base + next].intended_ns - now
                                   : kIdleWaitNs;
    wait_ns = wait_ns > kSpinNs ? std::min(wait_ns - kSpinNs, kIdleWaitNs) : 0;
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int n = epoll_pwait2(epoll_fd_, events, 16, &ts, nullptr);
    for (int i = 0; i < n; ++i) {
      Conn& conn = conns_[events[i].data.u64];
      if (conn.fd < 0) continue;
      if ((events[i].events & EPOLLOUT) != 0 && !Flush(&conn)) {
        segment_now_ns_ = NowNs();
        DropConn(&conn, &result);
        continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        ReadReady(&conn, &result);
      }
    }
  }
  return result;
}

uint64_t OpenLoopClient::CheckReads(
    std::vector<std::string>* violations) const {
  // Real-time order only: a put P supersedes a put Q when P was sent
  // after Q's acknowledgement arrived. A get sent after P's
  // acknowledgement must not return Q (or nothing). Both orders are
  // taken from this one thread's event sequence, so they are exact.
  // Commit slots are not used: a request re-driven after a fast-path
  // fallback can commit twice, and its ack may name the slot of the
  // copy the state machine skipped as a duplicate.
  struct Ack {
    int64_t done_ns;
    const Op* latest;  ///< the acked-so-far put sent last
  };
  std::unordered_map<uint32_t, std::vector<Ack>> acks;
  std::unordered_map<uint64_t, const Op*> acked_put;
  std::vector<const Op*> puts;
  for (const Op& op : ops_) {
    if (op.is_get || !op.ok) continue;
    puts.push_back(&op);
    acked_put[op.put_id] = &op;
  }
  std::sort(puts.begin(), puts.end(),
            [](const Op* a, const Op* b) { return a->done_ns < b->done_ns; });
  for (const Op* op : puts) {
    std::vector<Ack>& list = acks[op->key];
    const Op* latest = op;
    if (!list.empty() && list.back().latest->sent_ns > op->sent_ns) {
      latest = list.back().latest;
    }
    list.push_back(Ack{op->done_ns, latest});
  }
  uint64_t checked = 0;
  for (const Op& op : ops_) {
    if (!op.is_get || !op.ok) continue;
    ++checked;
    auto it = acks.find(op.key);
    if (it == acks.end()) continue;
    const std::vector<Ack>& list = it->second;
    auto after = std::lower_bound(
        list.begin(), list.end(), op.sent_ns,
        [](const Ack& a, int64_t t) { return a.done_ns < t; });
    if (after == list.begin()) continue;  // nothing acknowledged before
    const Op* newest = std::prev(after)->latest;
    if (op.put_id == 0) {
      violations->push_back("get of " + KeyName(op.key) +
                            " found nothing after an acknowledged put");
      continue;
    }
    auto found = acked_put.find(op.put_id);
    if (found == acked_put.end()) {
      // A put that failed or timed out may still have committed, at an
      // unknown time, so such a read cannot be judged. A value no put
      // of this client ever carried is a violation.
      if (op.put_id >= next_put_id_) {
        violations->push_back("get of " + KeyName(op.key) +
                              " returned a value no put wrote");
      }
      continue;
    }
    const Op* returned = found->second;
    if (returned->done_ns < newest->sent_ns) {
      violations->push_back(
          "stale get of " + KeyName(op.key) + ": returned the put acked at "
          "slot " + std::to_string(returned->slot) + ", superseded by the "
          "put acked at slot " + std::to_string(newest->slot) +
          " before the get was sent");
    }
  }
  return checked;
}

}  // namespace perfbench
