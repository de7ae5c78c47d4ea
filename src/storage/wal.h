// Segmented write-ahead log for acceptor records.
//
// Paxos safety requires an acceptor to never forget a promise or an
// accepted value it has answered for. The in-memory NodeStorage model
// (storage.h) only simulates that; this module makes it real: every
// AcceptorRecord mutation is mirrored — via the AcceptorJournal hooks —
// into an append-only log of CRC-32-framed records, and a reply leaves
// the node only after the fdatasync covering its mutations returned.
//
// Layout on disk (one directory per node):
//
//   MANIFEST          "dpaxos-wal v1 start=<seq>"   (swapped by rename)
//   wal-000007.log    segments, replayed in sequence order
//   wal-000008.log    the highest-numbered segment is ACTIVE (appended)
//
// Each log record is framed [u32 len][u32 crc32(body)][body]; the body
// is a tagged encoding of one logical mutation (promise, accept, intent
// set, lease, relinquish, GC ballots, snapshot install, prefix release,
// snapshot drop) or a full-record checkpoint image.
//
// Rotation and checkpointing. The active segment rotates once it
// exceeds segment_bytes. A checkpoint — triggered when total live bytes
// exceed checkpoint_bytes, which bounds recovery time; log compaction
// only journals its snapshot and release records — starts a fresh
// segment with a full image of every record, fsyncs it, swaps the
// MANIFEST by rename to point at it, and only then deletes the older
// segments. A crash at any point leaves either the old manifest (new
// segment replays as a no-op prefix of images) or the new one (old
// segments are dead and swept at the next open).
//
// Recovery. Segments from the manifest's start are replayed in order.
// In SEALED segments (every one but the last) any damage is bit rot —
// the data was fsynced before the segment was abandoned — so recovery
// fails loudly with Status::Corruption. In the ACTIVE segment a bad
// record that extends to end-of-file is a torn tail from power loss:
// the file is truncated back to the last whole record and the node
// carries on (those mutations were never acknowledged — the group
// commit gate had not released their replies). A bad record in the
// middle of the active segment is bit rot again: Corruption.
//
// Group commit. Journal hooks buffer encoded records in memory;
// SyncThen(done) arms one flush event on the node's EventScheduler, so
// every reply delayed in the same batch is released by a single
// append+fdatasync. SyncNow() is the synchronous barrier the compaction
// order uses.
//
// fsync failure policy (fsyncgate): after a failed append or fdatasync
// the WAL enters a sticky failed state and never retries — the page
// cache may have dropped the dirty data, so a later "successful" fsync
// would prove nothing. With panic_on_sync_failure (the production
// default) the process aborts; tests disable it and observe the sticky
// Status plus the withheld callbacks.
#ifndef DPAXOS_STORAGE_WAL_H_
#define DPAXOS_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sim/scheduler.h"
#include "storage/env.h"
#include "storage/storage.h"

namespace dpaxos {

struct WalOptions {
  /// Rotate the active segment once it exceeds this many bytes.
  uint64_t segment_bytes = 4ull << 20;
  /// Write a checkpoint (full images + manifest swap + old-segment
  /// deletion) once total live bytes exceed this.
  uint64_t checkpoint_bytes = 32ull << 20;
  /// Group-commit window: SyncThen callbacks queued within this delay
  /// share one fdatasync. 0 still batches everything scheduled in the
  /// same event-loop round.
  Duration group_commit_delay = 0;
  /// Abort the process on append/fsync failure (see file comment).
  /// Tests disable this to observe the sticky failed state.
  bool panic_on_sync_failure = true;
};

struct WalStats {
  uint64_t appends = 0;             ///< logical records journaled
  uint64_t bytes = 0;               ///< framed bytes appended
  uint64_t fsyncs = 0;              ///< fdatasync calls issued
  uint64_t torn_tail_truncations = 0;  ///< torn tails repaired at open
  uint64_t sync_failures = 0;       ///< failed appends/fsyncs (sticky)
  uint64_t segments_created = 0;
  uint64_t checkpoints = 0;
};

/// \brief A node's acceptor WAL. See file comment.
///
/// Single-threaded, like everything on a node's event loop.
class Wal {
 public:
  /// Open (or create) the WAL in `dir`, replaying existing segments.
  /// `scheduler` (nullable) drives group commit; without one, SyncThen
  /// degenerates to a synchronous flush per call. Returns Corruption for
  /// damage in sealed segments or a malformed manifest — the caller must
  /// refuse to serve rather than run on a partial record.
  static Result<std::unique_ptr<Wal>> Open(Env* env, const std::string& dir,
                                           const WalOptions& options,
                                           EventScheduler* scheduler);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Records recovered from disk, keyed by partition. NodeStorage::
  /// AdoptWal moves them out and re-attaches each via Attach().
  std::map<PartitionId, std::unique_ptr<AcceptorRecord>> TakeRecovered();

  /// Register `rec` as the live record for `partition` and return the
  /// journal to bind to it. The record must outlive the WAL's use of it
  /// (NodeStorage owns both).
  AcceptorJournal* Attach(PartitionId partition, AcceptorRecord* rec);

  /// Group commit: once every record journaled so far is durable, invoke
  /// `done`. Batched — one fdatasync may release many callbacks. After a
  /// sync failure callbacks are dropped, never invoked (replies stay
  /// withheld; acknowledging after a failed fsync would lie).
  void SyncThen(std::function<void()> done);

  /// Synchronous barrier: flush and fdatasync everything pending. The
  /// compaction order (write-snapshot → sync → release → sync) runs on
  /// this. Returns the sticky failure after a sync failure.
  Status SyncNow();

  /// Roll a checkpoint: fresh segment with full images of every attached
  /// record, manifest swap, old segments deleted. Implies SyncNow().
  Status Checkpoint();

  /// Sticky failure status: OK until the first failed append/fsync.
  const Status& health() const { return health_; }

  const WalStats& stats() const { return stats_; }
  const std::string& dir() const { return dir_; }
  /// Sequence number of the active (appended) segment.
  uint64_t active_seq() const { return active_seq_; }

  /// Segment file name for sequence `seq` ("wal-000012.log").
  static std::string SegmentName(uint64_t seq);

 private:
  friend class WalJournal;

  Wal(Env* env, std::string dir, const WalOptions& options,
      EventScheduler* scheduler);

  // Journal entry point: append one framed record for `partition`.
  void AppendRecord(PartitionId partition, std::string body);
  // Flush pending_ to the active segment and fdatasync; run callbacks.
  void FlushBatch();
  // Enter the sticky failed state (abort under panic_on_sync_failure).
  void Fail(const Status& st);
  Status RotateSegment();
  // Replay one segment's bytes into recovered_. `sealed` selects the
  // fail-loud (Corruption) vs. truncate-torn-tail policy; on truncation
  // *repaired_size is set to the surviving byte count.
  Status ReplaySegment(const std::string& bytes, uint64_t seq, bool sealed,
                       uint64_t* repaired_size);
  Status ApplyBody(std::string_view body);
  Status WriteManifest(uint64_t start_seq);

  AcceptorRecord* RecoveredFor(PartitionId partition);

  Env* env_;
  std::string dir_;
  WalOptions options_;
  EventScheduler* scheduler_;

  std::map<PartitionId, std::unique_ptr<AcceptorRecord>> recovered_;
  std::map<PartitionId, AcceptorRecord*> attached_;
  std::map<PartitionId, std::unique_ptr<AcceptorJournal>> journals_;

  std::unique_ptr<WritableFile> active_;
  uint64_t active_seq_ = 0;
  uint64_t active_size_ = 0;   // durable + flushed bytes in the segment
  uint64_t start_seq_ = 0;     // manifest: lowest live segment
  uint64_t live_bytes_ = 0;    // across all live segments
  bool unsynced_ = false;      // bytes appended since the last fdatasync

  std::string pending_;                         // encoded, not yet appended
  std::vector<std::function<void()>> waiters_;  // released by next fsync
  std::vector<PartitionId> dirty_;              // records awaiting credit
  EventId flush_event_ = 0;

  Status health_ = Status::OK();
  WalStats stats_;
};

}  // namespace dpaxos

#endif  // DPAXOS_STORAGE_WAL_H_
