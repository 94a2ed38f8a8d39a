#ifndef MEDSYNC_CHAIN_MEMPOOL_H_
#define MEDSYNC_CHAIN_MEMPOOL_H_

#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chain/transaction.h"
#include "common/metrics/metrics.h"
#include "common/status.h"

namespace medsync::chain {

/// Pending-transaction pool. Arrival order is preserved ("smart contracts
/// dispose of the updates according to received requests in chronological
/// order", Section III-B), and block building honours the one-transaction-
/// per-shared-data-per-block rule via the same ConflictKeyFn the chain
/// validates with: a second update to the same shared table stays pooled
/// for the NEXT block instead of being dropped.
class Mempool {
 public:
  using ConflictKeyFn =
      std::function<std::optional<std::string>(const Transaction&)>;

  explicit Mempool(ConflictKeyFn conflict_key = nullptr,
                   size_t capacity = 10000);

  /// Adds `tx` if its signature verifies and it is not already pooled.
  /// Checks run dedup -> signature -> capacity, so a re-gossiped duplicate
  /// reports AlreadyExists even when the pool is full (a full pool must not
  /// make peers mistake a benign duplicate for backpressure), and a
  /// bad-signature transaction reports PermissionDenied even when the pool
  /// is full (ResourceExhausted is retryable backpressure to ReliableChannel,
  /// which would keep retransmitting garbage that can never be accepted).
  Status Add(Transaction tx);

  /// Attaches counters (mempool.adds, mempool.reject.<reason>) and the
  /// shared occupancy gauge (mempool.occupancy, aggregated across pools via
  /// deltas). The registry must outlive the mempool; nullptr detaches.
  void set_metrics(metrics::MetricsRegistry* registry);

  bool Contains(const crypto::Hash256& id) const;
  size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }

  /// Selects up to `max_count` transactions for a block via a deterministic
  /// conflict-partitioning pass: transactions are walked in canonical order
  /// (arrival slots, per-sender nonce order restored) and partitioned into
  /// the current batch vs. deferred-to-a-later-block. A transaction defers
  /// when its conflict key is already claimed by the batch (the paper's
  /// one-update-per-shared-table-per-block rule) or the batch is full;
  /// everything else — updates to DISTINCT tables — batches into one block.
  /// Deferred transactions stay pooled until RemoveIncluded() confirms the
  /// batch; `deferred` (optional) receives how many were held back.
  std::vector<Transaction> BuildBlockCandidate(size_t max_count,
                                               size_t* deferred =
                                                   nullptr) const;

  /// Drops every pooled transaction whose id is in `included_ids` (hex).
  void RemoveIncluded(const std::set<std::string>& included_ids);

  /// Drops a specific transaction (e.g. one that became invalid).
  void Remove(const crypto::Hash256& id);

  /// Every pooled transaction in arrival order (for periodic re-gossip:
  /// on a lossy network, the one broadcast at submission time may never
  /// have reached the sealer whose turn it is).
  std::vector<Transaction> PendingTransactions() const;

 private:
  struct Pooled {
    Transaction tx;
    std::string id;  // hex, computed once in Add
  };

  ConflictKeyFn conflict_key_;
  size_t capacity_;
  std::deque<Pooled> queue_;
  std::set<std::string> ids_;

  metrics::Counter* adds_ = nullptr;
  metrics::Counter* reject_duplicate_ = nullptr;
  metrics::Counter* reject_full_ = nullptr;
  metrics::Counter* reject_bad_signature_ = nullptr;
  metrics::Gauge* occupancy_ = nullptr;
};

}  // namespace medsync::chain

#endif  // MEDSYNC_CHAIN_MEMPOOL_H_
