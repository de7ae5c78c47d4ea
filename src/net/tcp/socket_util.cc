#include "net/tcp/socket_util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dpaxos {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

Result<sockaddr_in> ResolveV4(const HostPort& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  std::string host = addr.host.empty() ? "127.0.0.1" : addr.host;
  if (host == "localhost") host = "127.0.0.1";
  if (inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    return Status::InvalidArgument("unresolvable host (IPv4 only): " + host);
  }
  return sa;
}

}  // namespace

Result<HostPort> HostPort::Parse(std::string_view spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon + 1 >= spec.size()) {
    return Status::InvalidArgument("endpoint must be host:port: " +
                                   std::string(spec));
  }
  HostPort hp;
  hp.host = std::string(spec.substr(0, colon));
  uint64_t port = 0;
  for (char c : spec.substr(colon + 1)) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad port in endpoint: " +
                                     std::string(spec));
    }
    port = port * 10 + static_cast<uint64_t>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("port out of range: " +
                                     std::string(spec));
    }
  }
  hp.port = static_cast<uint16_t>(port);
  return hp;
}

std::string HostPort::ToString() const {
  return host + ":" + std::to_string(port);
}

Result<std::vector<HostPort>> ParseClusterSpec(std::string_view csv) {
  std::vector<HostPort> endpoints;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string_view::npos) comma = csv.size();
    std::string_view part = csv.substr(start, comma - start);
    if (part.empty()) {
      return Status::InvalidArgument("empty endpoint in cluster spec");
    }
    Result<HostPort> hp = HostPort::Parse(part);
    if (!hp.ok()) return hp.status();
    endpoints.push_back(std::move(hp.value()));
    start = comma + 1;
    if (comma == csv.size()) break;
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("empty cluster spec");
  }
  return endpoints;
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl O_NONBLOCK");
  }
  const int fdflags = fcntl(fd, F_GETFD, 0);
  if (fdflags < 0 || fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC) < 0) {
    return ErrnoStatus("fcntl FD_CLOEXEC");
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<int> OpenListener(const HostPort& addr, int backlog) {
  Result<sockaddr_in> sa = ResolveV4(addr);
  if (!sa.ok()) return sa.status();
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  Status st = SetNonBlocking(fd);
  if (st.ok() && bind(fd, reinterpret_cast<const sockaddr*>(&sa.value()),
                      sizeof(sockaddr_in)) < 0) {
    st = ErrnoStatus("bind " + addr.ToString());
  }
  if (st.ok() && listen(fd, backlog) < 0) st = ErrnoStatus("listen");
  if (!st.ok()) {
    close(fd);
    return st;
  }
  return fd;
}

Result<uint16_t> BoundPort(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) < 0) {
    return ErrnoStatus("getsockname");
  }
  return ntohs(sa.sin_port);
}

Result<int> StartConnect(const HostPort& addr) {
  Result<sockaddr_in> sa = ResolveV4(addr);
  if (!sa.ok()) return sa.status();
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  Status st = SetNonBlocking(fd);
  if (!st.ok()) {
    close(fd);
    return st;
  }
  SetNoDelay(fd);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&sa.value()),
              sizeof(sockaddr_in)) < 0 &&
      errno != EINPROGRESS) {
    Status err = ErrnoStatus("connect " + addr.ToString());
    close(fd);
    return err;
  }
  return fd;
}

Result<std::vector<uint16_t>> PickFreeLoopbackPorts(size_t n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  Status st = Status::OK();
  for (size_t i = 0; i < n && st.ok(); ++i) {
    Result<int> fd = OpenListener(HostPort{"127.0.0.1", 0}, 1);
    if (!fd.ok()) {
      st = fd.status();
      break;
    }
    fds.push_back(fd.value());
    Result<uint16_t> port = BoundPort(fd.value());
    if (!port.ok()) {
      st = port.status();
      break;
    }
    ports.push_back(port.value());
  }
  for (int fd : fds) close(fd);
  if (!st.ok()) return st;
  return ports;
}

GatherWriteResult GatherWrite(int fd, OutQueue* queue,
                              GatherWriteStats* stats) {
  constexpr size_t kMaxIovPerWrite = 64;
  while (!queue->empty()) {
    iovec iov[kMaxIovPerWrite];
    size_t niov = 0;
    for (const std::string& frame : queue->frames) {
      if (niov == kMaxIovPerWrite) break;
      const size_t skip = niov == 0 ? queue->front_written : 0;
      iov[niov].iov_base = const_cast<char*>(frame.data()) + skip;
      iov[niov].iov_len = frame.size() - skip;
      ++niov;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    // sendmsg, not writev: the flags argument carries MSG_NOSIGNAL.
    const ssize_t n = sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return GatherWriteResult::kBlocked;
    }
    if (n <= 0) return GatherWriteResult::kFailed;
    ++stats->syscalls;
    stats->bytes += static_cast<uint64_t>(n);
    size_t remaining = static_cast<size_t>(n);
    size_t covered = 0;  // frames this syscall touched
    while (remaining > 0) {
      const std::string& front = queue->frames.front();
      const size_t left = front.size() - queue->front_written;
      ++covered;
      if (remaining < left) {
        queue->front_written += remaining;
        break;
      }
      remaining -= left;
      queue->bytes -= front.size();
      queue->front_written = 0;
      queue->frames.pop_front();
    }
    stats->frames_coalesced += covered - 1;
  }
  return GatherWriteResult::kDrained;
}

}  // namespace dpaxos
