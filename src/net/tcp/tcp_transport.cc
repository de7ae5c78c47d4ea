#include "net/tcp/tcp_transport.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/perf_counters.h"

namespace dpaxos {

namespace {

/// Refill from the peer queue stops once this many bytes are staged (one
/// flush cannot buffer an unbounded burst in user space).
constexpr size_t kFlushSliceBytes = 64 * 1024;

}  // namespace

TcpTransport::TcpTransport(EventLoop* loop, NodeId self,
                           std::vector<HostPort> cluster,
                           TcpTransportOptions options)
    : loop_(loop),
      self_(self),
      cluster_(std::move(cluster)),
      options_(options),
      peers_(cluster_.size()) {
  DPAXOS_CHECK(self_ < cluster_.size());
  DPAXOS_CHECK(options_.reactors >= 1);
}

TcpTransport::~TcpTransport() {
  pool_.reset();  // joins the reactors before anything they post to goes
  *alive_ = false;
  for (PeerState& peer : peers_) {
    if (peer.reconnect_timer != 0) loop_->Cancel(peer.reconnect_timer);
  }
  for (auto& [id, conn] : conns_) {
    loop_->UnwatchFd(conn->fd);
    close(conn->fd);
  }
  if (listen_fd_ >= 0) {
    loop_->UnwatchFd(listen_fd_);
    close(listen_fd_);
  }
}

Status TcpTransport::Listen() {
  DPAXOS_CHECK(listen_fd_ < 0);
  Result<int> fd = OpenListener(cluster_[self_], options_.listen_backlog);
  if (!fd.ok()) return fd.status();
  listen_fd_ = fd.value();
  Result<uint16_t> port = BoundPort(listen_fd_);
  if (!port.ok()) return port.status();
  listen_port_ = port.value();
  cluster_[self_].port = listen_port_;

  DPAXOS_CHECK_MSG(decode_ != nullptr, "wire codec not installed");
  ReactorPoolOptions rp;
  rp.reactors = options_.reactors;
  rp.max_frame_bytes = options_.max_frame_bytes;
  rp.num_nodes = cluster_.size();
  pool_ = std::make_unique<ReactorPool>(loop_, rp);
  pool_->set_wire_decoder(decode_);
  pool_->set_node_message_handler([this](NodeId from, MessagePtr msg) {
    ++ThreadPerfCounters().messages_delivered;
    if (handler_) handler_(from, msg);
  });
  pool_->set_client_request_handler(
      [this](uint64_t conn, uint64_t client_id, const ClientRequest& req) {
        if (client_handler_) client_handler_(conn, client_id, req);
      });
  pool_->Start();
  return loop_->WatchFd(listen_fd_, EPOLLIN,
                        [this](uint32_t) { AcceptReady(); });
}

void TcpTransport::RegisterHandler(NodeId node, Handler handler) {
  DPAXOS_CHECK_MSG(node == self_,
                   "TcpTransport hosts exactly one node per process");
  handler_ = std::move(handler);
}

void TcpTransport::Send(NodeId from, NodeId to, MessagePtr msg) {
  DPAXOS_CHECK(from == self_);
  DPAXOS_CHECK(to < cluster_.size());
  PerfCounters& pc = ThreadPerfCounters();
  ++pc.messages_sent;
  if (to == self_) {
    // Local delivery still goes through the loop (never reentrant into
    // the handler), matching the simulator's loopback asynchrony.
    std::shared_ptr<bool> alive = alive_;
    loop_->Schedule(0, [this, alive, from, msg = std::move(msg)]() {
      if (!*alive || !handler_) return;
      ++ThreadPerfCounters().messages_delivered;
      handler_(from, msg);
    });
    return;
  }
  DPAXOS_CHECK_MSG(encode_ != nullptr, "wire codec not installed");
  encode_buffer_.clear();
  encode_(*msg, &encode_buffer_);
  std::string frame;
  AppendNodeMessageFrame(encode_buffer_, &frame);
  PeerState& peer = peers_[to];
  if (peer.queue.size() >= options_.max_queued_frames) {
    peer.queue.pop_front();
    ++stats_.frames_dropped;
    ++pc.tcp_frames_dropped;
  }
  peer.queue.push_back(std::move(frame));
  EnsureConnected(to);
  Conn* conn = FindConn(peer.conn_id);
  // Flush via a timer instead of inline so every Send of the current
  // dispatch round lands in one gather write (the coalescing window).
  if (conn != nullptr && conn->established) ScheduleFlush(conn);
}

void TcpTransport::SendClientReply(uint64_t conn, const ClientReply& reply) {
  if (pool_ != nullptr) pool_->SendClientReply(conn, reply);
}

TcpTransportStats TcpTransport::stats() const {
  TcpTransportStats s = stats_;
  if (pool_ == nullptr) return s;
  const ReactorPoolStats ps = pool_->stats();
  s.bytes_in += ps.bytes_in;
  s.bytes_out += ps.bytes_out;
  s.frames_in += ps.frames_in;
  s.frames_out += ps.frames_out;
  s.malformed_frames += ps.malformed_frames;
  s.writev_calls += ps.writev_calls;
  s.frames_coalesced += ps.frames_coalesced;
  s.reactor_rounds_busy = ps.rounds_busy;
  s.reactor_rounds_idle = ps.rounds_idle;
  return s;
}

void TcpTransport::UpdatePeerAddress(NodeId node, HostPort addr) {
  DPAXOS_CHECK(node < cluster_.size());
  cluster_[node] = std::move(addr);
}

void TcpTransport::CloseAllConnections() {
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) OnConnError(id);
}

TcpTransport::Conn* TcpTransport::FindConn(uint64_t conn_id) {
  if (conn_id == 0) return nullptr;
  auto it = conns_.find(conn_id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void TcpTransport::AcceptReady() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      DPAXOS_WARN("accept failed: errno=" << errno);
      return;
    }
    SetNoDelay(fd);
    ++stats_.accepts;
    ++ThreadPerfCounters().tcp_accepts;
    pool_->Adopt(fd);
  }
}

void TcpTransport::EnsureConnected(NodeId to) {
  PeerState& peer = peers_[to];
  if (peer.conn_id != 0 || peer.reconnect_timer != 0) return;
  Result<int> fd = StartConnect(cluster_[to]);
  if (!fd.ok()) {
    ++peer.attempts;
    ScheduleReconnect(to);
    return;
  }
  auto conn = std::make_unique<Conn>();
  conn->id = next_conn_id_++;
  conn->fd = fd.value();
  conn->peer_node = to;
  // EPOLLOUT is armed below to learn when the connect completes;
  // want_write mirrors that so the first idle flush disarms it (a
  // level-triggered EPOLLOUT on a writable socket never sleeps).
  conn->want_write = true;
  const uint64_t id = conn->id;
  peer.conn_id = id;
  conns_[id] = std::move(conn);
  Status st = loop_->WatchFd(
      fd.value(), EPOLLIN | EPOLLOUT,
      [this, id](uint32_t events) { ConnEvent(id, events); });
  if (!st.ok()) OnConnError(id);
}

Duration TcpTransport::ReconnectDelay(uint32_t attempt) {
  const uint32_t exponent = attempt > 6 ? 6 : (attempt == 0 ? 0 : attempt - 1);
  Duration delay = options_.reconnect_backoff_base << exponent;
  delay = static_cast<Duration>(
      static_cast<double>(delay) * (1.0 + loop_->rng().NextDouble()));
  if (delay > options_.reconnect_backoff_cap) {
    delay = options_.reconnect_backoff_cap;
  }
  return delay;
}

void TcpTransport::ScheduleReconnect(NodeId to) {
  PeerState& peer = peers_[to];
  if (peer.reconnect_timer != 0) return;
  std::shared_ptr<bool> alive = alive_;
  peer.reconnect_timer =
      loop_->Schedule(ReconnectDelay(peer.attempts), [this, alive, to]() {
        if (!*alive) return;
        peers_[to].reconnect_timer = 0;
        if (peers_[to].conn_id == 0) EnsureConnected(to);
      });
}

void TcpTransport::OnOutboundUp(Conn* conn) {
  conn->established = true;
  PeerState& peer = peers_[conn->peer_node];
  peer.attempts = 0;
  if (peer.ever_connected) {
    ++stats_.reconnects;
    ++ThreadPerfCounters().tcp_reconnects;
  }
  peer.ever_connected = true;
  Hello hello;
  hello.kind = PeerKind::kNode;
  hello.id = self_;
  StageFrame(conn, EncodeHelloFrame(hello));
  // Flush inline: the HELLO (plus everything queued while dialing) should
  // hit the wire the moment the connect completes, not a timer later.
  FlushConn(conn);
}

void TcpTransport::StageFrame(Conn* conn, std::string frame) {
  conn->out.Push(std::move(frame));
  ++stats_.frames_out;
  ++ThreadPerfCounters().tcp_frames_out;
}

void TcpTransport::ScheduleFlush(Conn* conn) {
  if (conn->flush_scheduled) return;
  conn->flush_scheduled = true;
  std::shared_ptr<bool> alive = alive_;
  const uint64_t conn_id = conn->id;
  // 0-delay: fires at the END of the current poll round, so every frame
  // queued while dispatching one epoll batch shares a single gather write.
  loop_->Schedule(0, [this, alive, conn_id]() {
    if (!*alive) return;
    Conn* c = FindConn(conn_id);
    if (c == nullptr) return;
    c->flush_scheduled = false;
    if (c->established) FlushConn(c);
  });
}

void TcpTransport::ConnEvent(uint64_t conn_id, uint32_t events) {
  Conn* conn = FindConn(conn_id);
  if (conn == nullptr) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    OnConnError(conn_id);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!conn->established) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        OnConnError(conn_id);
        return;
      }
      OnOutboundUp(conn);
    } else {
      FlushConn(conn);
    }
    conn = FindConn(conn_id);  // Flush may have closed it
    if (conn == nullptr) return;
  }
  if ((events & EPOLLIN) != 0) ReadReady(conn);
}

void TcpTransport::ReadReady(Conn* conn) {
  // Dialed connections are write-only: the peer never answers on them,
  // so readability means EOF, an error, or a protocol violation.
  char buf[512];
  const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return;
  }
  if (n > 0) {
    MarkMalformed(conn, "bytes received on a dialed connection");
    return;
  }
  OnConnError(conn->id);
}

void TcpTransport::MarkMalformed(Conn* conn, const char* why) {
  ++stats_.malformed_frames;
  ++ThreadPerfCounters().tcp_malformed_frames;
  DPAXOS_WARN("tcp: closing conn " << conn->id << ": " << why);
  OnConnError(conn->id);
}

void TcpTransport::FlushConn(Conn* conn) {
  if (!conn->established) return;
  PeerState& peer = peers_[conn->peer_node];
  PerfCounters& pc = ThreadPerfCounters();
  GatherWriteResult result;
  do {
    while (!peer.queue.empty() && conn->out.bytes < kFlushSliceBytes) {
      std::string frame = std::move(peer.queue.front());
      peer.queue.pop_front();
      StageFrame(conn, std::move(frame));
    }
    GatherWriteStats ws;
    result = GatherWrite(conn->fd, &conn->out, &ws);
    stats_.writev_calls += ws.syscalls;
    pc.tcp_writev_calls += ws.syscalls;
    stats_.bytes_out += ws.bytes;
    pc.tcp_bytes_out += ws.bytes;
    stats_.frames_coalesced += ws.frames_coalesced;
    pc.tcp_frames_coalesced += ws.frames_coalesced;
  } while (result == GatherWriteResult::kDrained && !peer.queue.empty());
  if (result == GatherWriteResult::kFailed) {
    OnConnError(conn->id);
    return;
  }
  const bool want_write = result == GatherWriteResult::kBlocked;
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    loop_->UpdateFd(conn->fd, EPOLLIN | (want_write ? EPOLLOUT : 0u));
  }
}

void TcpTransport::OnConnError(uint64_t conn_id) {
  Conn* conn = FindConn(conn_id);
  if (conn == nullptr) return;
  const NodeId peer_node = conn->peer_node;
  // Anything staged at or below the socket dies with it — within the
  // Send contract (may drop).
  stats_.frames_dropped += conn->out.frames.size();
  ThreadPerfCounters().tcp_frames_dropped += conn->out.frames.size();
  CloseConn(conn_id);
  PeerState& peer = peers_[peer_node];
  peer.conn_id = 0;
  ++peer.attempts;
  ScheduleReconnect(peer_node);
}

void TcpTransport::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  loop_->UnwatchFd(it->second->fd);
  close(it->second->fd);
  conns_.erase(it);
}

}  // namespace dpaxos
