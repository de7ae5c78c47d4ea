// Small POSIX socket helpers shared by the TCP transport, the reactor
// pool, the clients and the process harness. Everything returns
// Status/Result — no exceptions, no errno leaks past these functions.
#ifndef DPAXOS_NET_TCP_SOCKET_UTIL_H_
#define DPAXOS_NET_TCP_SOCKET_UTIL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dpaxos {

/// A "host:port" endpoint (IPv4 dotted quad or "localhost").
struct HostPort {
  std::string host;
  uint16_t port = 0;

  static Result<HostPort> Parse(std::string_view spec);
  std::string ToString() const;
};

/// Parse "host:port,host:port,..." (one endpoint per cluster node, in
/// NodeId order).
Result<std::vector<HostPort>> ParseClusterSpec(std::string_view csv);

/// Set O_NONBLOCK and FD_CLOEXEC.
Status SetNonBlocking(int fd);

/// Disable Nagle (consensus rounds are latency-bound small frames).
void SetNoDelay(int fd);

/// Create, bind and listen a non-blocking TCP socket. Port 0 binds an
/// ephemeral port; read it back with BoundPort().
Result<int> OpenListener(const HostPort& addr, int backlog);

/// The locally bound port of a socket (after OpenListener with port 0).
Result<uint16_t> BoundPort(int fd);

/// Start a non-blocking connect. Returns the socket; completion is
/// signalled by writability (check SO_ERROR).
Result<int> StartConnect(const HostPort& addr);

/// Reserve `n` distinct free loopback ports by binding ephemeral
/// listeners, recording their ports, then closing them. Racy by nature
/// (another process could grab a port before it is reused) but reliable
/// enough for single-host test harnesses.
Result<std::vector<uint16_t>> PickFreeLoopbackPorts(size_t n);

/// Frames staged for one socket, written front to back.
struct OutQueue {
  std::deque<std::string> frames;
  size_t front_written = 0;  ///< bytes of frames.front() already sent
  size_t bytes = 0;          ///< staged total, the partial front included

  bool empty() const { return frames.empty(); }
  void Push(std::string frame) {
    bytes += frame.size();
    frames.push_back(std::move(frame));
  }
  void Clear() { *this = OutQueue(); }
};

/// What one GatherWrite call moved; each caller folds it into its own
/// counters.
struct GatherWriteStats {
  uint64_t syscalls = 0;
  uint64_t bytes = 0;
  uint64_t frames_coalesced = 0;  ///< frames that shared a syscall (batch-1)
};

enum class GatherWriteResult {
  kDrained,  ///< the queue is empty
  kBlocked,  ///< the socket is full: wait for EPOLLOUT and call again
  kFailed,   ///< hard error: the connection is dead
};

/// Write `queue` to the nonblocking socket `fd`, up to 64 frames per
/// sendmsg(MSG_NOSIGNAL), until it drains or the socket stops taking
/// bytes. A partial write resumes mid-frame on the next call, and
/// frames leave strictly in push order, so coalescing never reorders.
GatherWriteResult GatherWrite(int fd, OutQueue* queue,
                              GatherWriteStats* stats);

}  // namespace dpaxos

#endif  // DPAXOS_NET_TCP_SOCKET_UTIL_H_
