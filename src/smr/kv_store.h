// Replicated key-value store: the partition state machine used by the
// examples and integration tests. Commands are batches of transactions
// encoded by src/txn.
#ifndef DPAXOS_SMR_KV_STORE_H_
#define DPAXOS_SMR_KV_STORE_H_

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "smr/state_machine.h"

namespace dpaxos {

/// \brief In-memory key-value state machine.
///
/// Applies transaction batches (see txn::EncodeBatch): every write op in
/// every transaction of the batch is installed; reads are no-ops at apply
/// time (they were answered at the leader). A content checksum supports
/// cross-replica convergence checks in tests.
class KvStateMachine final : public StateMachine {
 public:
  void Apply(SlotId slot, const std::string& payload) override;

  /// Point lookup against the applied state.
  std::optional<std::string> Get(const std::string& key) const;

  size_t size() const { return data_.size(); }
  uint64_t applied_commands() const { return applied_commands_; }
  uint64_t applied_writes() const { return applied_writes_; }
  uint64_t duplicates_skipped() const { return duplicates_skipped_; }

  /// True iff a transaction tagged (client_id, seq) has already been
  /// applied. client_id 0 marks untagged transactions and always
  /// returns false.
  bool WasApplied(uint64_t client_id, uint64_t seq) const;

  /// Order-independent checksum of the full key-value content; equal
  /// checksums on two replicas mean convergent state.
  uint64_t Checksum() const;

  /// Serialize the full state for snapshot transfer: every key/value
  /// pair, the per-client dedup windows and the apply counters. Restore
  /// needs the windows: without them a client retry straddling the
  /// snapshot point would be applied twice during residual log replay.
  /// The pairs are written straight from the hash map, so their order is
  /// unspecified and two equal states may serialize to different bytes
  /// of the same size; compare states with Checksum(), not bytes.
  std::string SerializeFull() const;

  /// SerializeFull() wrapped in the snapshot envelope (smr/snapshot.h)
  /// covering slots [0, through): the bytes of
  /// EncodeSnapshot(through, SerializeFull()), written once into a
  /// buffer reserved to the exact size.
  std::string SnapshotEnvelope(SlotId through) const;

  /// Replace the state with a SerializeFull() image. Returns Corruption
  /// on malformed input, leaving the state unchanged.
  Status RestoreFull(const std::string& snapshot);

 private:
  // Compact per-client dedup window: every seq <= prefix has been
  // applied, plus a sparse set of out-of-order seqs above it. The set
  // drains back into the prefix as gaps fill, so a well-behaved client
  // costs O(1) amortized space.
  struct ClientWindow {
    uint64_t prefix = 0;
    std::set<uint64_t> sparse;

    // Records seq as applied; returns false if it was already present.
    bool Insert(uint64_t seq);
    bool Contains(uint64_t seq) const;
  };

  // Exact byte size of the SerializeFull() image, without a pass over
  // the pairs (pair_bytes_ tracks their share) or the dedup windows.
  size_t SerializedSize() const;
  // Appends the SerializeFull() image to *out.
  void AppendFull(std::string* out) const;

  std::unordered_map<std::string, std::string> data_;
  // Encoded size of every pair in data_: two u32 length prefixes plus
  // the key and value bytes.
  uint64_t pair_bytes_ = 0;
  std::unordered_map<uint64_t, ClientWindow> applied_seqs_;
  uint64_t applied_commands_ = 0;
  uint64_t applied_writes_ = 0;
  uint64_t duplicates_skipped_ = 0;
};

}  // namespace dpaxos

#endif  // DPAXOS_SMR_KV_STORE_H_
