#include "chain/mempool.h"

#include <algorithm>
#include <map>

#include "common/strings.h"

namespace medsync::chain {

Mempool::Mempool(ConflictKeyFn conflict_key, size_t capacity)
    : conflict_key_(std::move(conflict_key)), capacity_(capacity) {}

void Mempool::set_metrics(metrics::MetricsRegistry* registry) {
  if (registry == nullptr) {
    adds_ = reject_duplicate_ = reject_full_ = reject_bad_signature_ = nullptr;
    occupancy_ = nullptr;
    return;
  }
  adds_ = registry->GetCounter("mempool.adds");
  reject_duplicate_ = registry->GetCounter("mempool.reject.duplicate");
  reject_full_ = registry->GetCounter("mempool.reject.full");
  reject_bad_signature_ = registry->GetCounter("mempool.reject.bad_signature");
  occupancy_ = registry->GetGauge("mempool.occupancy");
}

Status Mempool::Add(Transaction tx) {
  // Dedup BEFORE the capacity check: a full pool re-receiving an already
  // pooled transaction is a benign duplicate, not backpressure.
  std::string id = tx.Id().ToHex();
  if (ids_.count(id) > 0) {
    metrics::Inc(reject_duplicate_);
    return Status::AlreadyExists(
        StrCat("transaction ", id.substr(0, 8), " already pooled"));
  }
  // Signature BEFORE capacity: ResourceExhausted is retryable backpressure
  // (ReliableChannel retransmits on it), while a bad signature is a
  // permanent reject. Checking capacity first would make a full pool report
  // unacceptable garbage as retryable, so peers would retransmit it forever
  // and mempool.reject.bad_signature would undercount.
  if (!tx.VerifySignature()) {
    metrics::Inc(reject_bad_signature_);
    return Status::PermissionDenied(
        StrCat("transaction ", id.substr(0, 8), " has a bad signature"));
  }
  if (queue_.size() >= capacity_) {
    metrics::Inc(reject_full_);
    return Status::ResourceExhausted("mempool full");
  }
  ids_.insert(id);
  queue_.push_back(Pooled{std::move(tx), std::move(id)});
  metrics::Inc(adds_);
  metrics::GaugeAdd(occupancy_, 1);
  return Status::OK();
}

bool Mempool::Contains(const crypto::Hash256& id) const {
  return ids_.count(id.ToHex()) > 0;
}

std::vector<Transaction> Mempool::BuildBlockCandidate(size_t max_count,
                                                      size_t* deferred) const {
  // Phase 1 — canonical order. Gossip can deliver one sender's transactions
  // out of order (network jitter), but a deploy must execute before calls
  // to the deployed contract. Restore per-sender nonce order while
  // preserving the arrival order of senders' slots: collect each sender's
  // pooled transactions sorted by nonce, then refill the queue positions.
  // stable_sort, not sort: equal nonces (a sender re-keying after a crash,
  // or a buggy client) must keep arrival order on every standard library,
  // or candidate bytes diverge across toolchains.
  std::map<std::string, std::vector<const Transaction*>> per_sender;
  for (const Pooled& pooled : queue_) {
    per_sender[pooled.tx.from.ToHex()].push_back(&pooled.tx);
  }
  for (auto& [sender, txs] : per_sender) {
    std::stable_sort(txs.begin(), txs.end(),
                     [](const Transaction* a, const Transaction* b) {
                       return a->nonce < b->nonce;
                     });
  }
  std::map<std::string, size_t> cursor;
  std::vector<const Transaction*> ordered;
  ordered.reserve(queue_.size());
  for (const Pooled& slot : queue_) {
    std::string sender = slot.tx.from.ToHex();
    ordered.push_back(per_sender[sender][cursor[sender]++]);
  }

  // Phase 2 — deterministic conflict partition. One pass over the canonical
  // order splits it into {batch, deferred}: a transaction joins the batch
  // iff the batch has room and its conflict key is unclaimed; otherwise it
  // defers to a later block (it stays pooled — "next block's problem").
  // Non-conflicting updates to distinct tables thus batch into one block
  // while the per-table serialization rule holds.
  std::vector<Transaction> selected;
  std::set<std::string> used_keys;
  size_t held_back = 0;
  for (const Transaction* tx_ptr : ordered) {
    const Transaction& tx = *tx_ptr;
    if (selected.size() >= max_count) {
      ++held_back;
      continue;
    }
    if (conflict_key_) {
      std::optional<std::string> key = conflict_key_(tx);
      if (key.has_value()) {
        if (used_keys.count(*key) > 0) {
          ++held_back;
          continue;
        }
        used_keys.insert(*key);
      }
    }
    selected.push_back(tx);
  }
  if (deferred != nullptr) *deferred = held_back;
  return selected;
}

std::vector<Transaction> Mempool::PendingTransactions() const {
  std::vector<Transaction> pending;
  pending.reserve(queue_.size());
  for (const Pooled& pooled : queue_) pending.push_back(pooled.tx);
  return pending;
}

void Mempool::RemoveIncluded(const std::set<std::string>& included_ids) {
  std::deque<Pooled> kept;
  for (Pooled& pooled : queue_) {
    if (included_ids.count(pooled.id) > 0) {
      ids_.erase(pooled.id);
    } else {
      kept.push_back(std::move(pooled));
    }
  }
  metrics::GaugeAdd(occupancy_,
                    static_cast<int64_t>(kept.size()) -
                        static_cast<int64_t>(queue_.size()));
  queue_ = std::move(kept);
}

void Mempool::Remove(const crypto::Hash256& id) {
  std::set<std::string> one{id.ToHex()};
  RemoveIncluded(one);
}

}  // namespace medsync::chain
