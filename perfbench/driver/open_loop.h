// Open-loop client for the realnet workloads.
//
// Arrivals are paced from CLOCK_MONOTONIC at nanosecond resolution: the
// loop sleeps in epoll_pwait2 until shortly before the next intended
// send and spins the last few microseconds, instead of stepping a 1 ms
// timer wheel. Each op is timed from its intended send time, so a stall
// in the servers (or in this driver) is charged to every op it delays,
// and the driver's own lateness is reported as send lag.
//
// The whole op sequence — op kind, key, value — comes from the seed the
// client was built with; the servers only ever see generated inputs.
// Puts carry their put id in the value, which is what lets the get
// checker tell which write a read returned.
#ifndef PERFBENCH_DRIVER_OPEN_LOOP_H_
#define PERFBENCH_DRIVER_OPEN_LOOP_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "net/tcp/framing.h"
#include "net/tcp/socket_util.h"

namespace perfbench {

/// Shape of one constant-rate segment.
struct SegmentOptions {
  double rate = 1000;  ///< intended sends per second, all connections
  double seconds = 1;
  /// Share of ops that are linearizable gets; the rest are puts.
  double get_fraction = 0;
  uint32_t key_space = 1;
  /// When > 0: once the oldest unanswered op has waited this long, send
  /// no more ops (the rest of the segment is not attempted) and only
  /// drain. Keeps a ladder probe past capacity from piling up timeouts.
  int64_t abort_after_ns = 0;
};

struct SegmentResult {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;     ///< error replies and connection losses
  uint64_t timed_out = 0;  ///< no reply within the op timeout (10 s)
  std::vector<double> latency_ns;        ///< every ok op
  std::vector<double> write_latency_ns;  ///< ok puts
  std::vector<double> read_latency_ns;   ///< ok gets
  std::vector<double> send_lag_ns;       ///< actual minus intended send
  /// Ops still in flight when the last arrival was sent.
  uint64_t outstanding_at_last_send = 0;
  bool aborted = false;  ///< stopped sending early (abort_after_ns)

  uint64_t failures() const { return failed + timed_out; }
};

/// \brief Single-threaded pipelined client over a few TCP connections.
class OpenLoopClient {
 public:
  OpenLoopClient(uint64_t seed, uint64_t client_id_base, size_t value_bytes);
  ~OpenLoopClient();

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// One connection per entry; ops are dealt round-robin across them.
  dpaxos::Status Connect(const std::vector<dpaxos::HostPort>& endpoints);

  SegmentResult RunSegment(const SegmentOptions& options);

  /// Puts acknowledged so far, over every segment.
  uint64_t acked_puts() const { return acked_puts_; }

  /// Failed ops so far, by op kind and the server's error text (or
  /// "timeout"), over every segment.
  const std::map<std::string, uint64_t>& errors() const { return errors_; }

  /// Read check over every segment run so far: no get may return a
  /// value older (in real time) than the newest put to its key that was
  /// acknowledged before the get was sent. Appends one line per
  /// violation; returns the number of gets checked.
  uint64_t CheckReads(std::vector<std::string>* violations) const;

 private:
  struct Conn {
    int fd = -1;
    dpaxos::FrameDecoder decoder;
    std::string out;
    uint64_t next_request_id = 1;
    /// request id -> index into ops_
    std::unordered_map<uint64_t, uint32_t> inflight;
  };
  struct Op {
    int64_t intended_ns = 0;
    int64_t sent_ns = 0;
    int64_t done_ns = 0;
    uint32_t key = 0;
    bool is_get = false;
    bool finished = false;
    bool ok = false;
    /// Puts: this op's put id. Gets: the put id the value carried, or 0
    /// for not-found.
    uint64_t put_id = 0;
    /// Puts: commit slot from the reply.
    uint64_t slot = 0;
  };

  void Send(uint32_t op_index, size_t conn_index);
  bool Flush(Conn* conn);
  void ReadReady(Conn* conn, SegmentResult* result);
  void Finish(Op* op, bool ok, SegmentResult* result);
  void DropConn(Conn* conn, SegmentResult* result);
  std::string ValueFor(uint64_t put_id) const;

  SeededRng rng_;
  uint64_t client_id_base_;
  size_t value_bytes_;
  std::string filler_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  std::vector<Op> ops_;  ///< every op of every segment
  uint64_t next_put_id_ = 1;
  uint64_t outstanding_ = 0;
  uint64_t acked_puts_ = 0;
  std::map<std::string, uint64_t> errors_;
  int64_t segment_now_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_OPEN_LOOP_H_
