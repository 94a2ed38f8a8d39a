#include "runtime/chain_node.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "common/threading/thread_pool.h"

namespace medsync::runtime {

using chain::Block;
using chain::Transaction;

ChainNode::ChainNode(NodeConfig config, net::Scheduler* scheduler,
                     net::Network* network,
                     std::shared_ptr<const chain::Sealer> sealer,
                     Block genesis,
                     chain::Blockchain::ConflictKeyFn conflict_key,
                     std::unique_ptr<contracts::ContractHost> host)
    : config_(std::move(config)),
      scheduler_(scheduler),
      network_(network),
      sealer_(std::move(sealer)),
      host_(std::move(host)) {
  const size_t lane_count = std::max<size_t>(1, config_.lane_count);
  lanes_.reserve(lane_count);
  for (size_t l = 0; l < lane_count; ++l) {
    // Lane 0 adopts the caller's genesis unmodified (single-lane setups
    // stay byte-compatible); higher lanes derive theirs by stamping the
    // lane id, so every lane's chain starts from a distinct, deterministic
    // genesis hash shared by all nodes.
    Block lane_genesis = genesis;
    if (l > 0) lane_genesis.header.lane = static_cast<uint32_t>(l);
    lanes_.push_back(std::make_unique<Lane>(std::move(lane_genesis),
                                            sealer_.get(), conflict_key,
                                            config_.pool, conflict_key));
    lanes_.back()->executed_hashes.push_back(
        lanes_.back()->chain.genesis().header.Hash().ToHex());
  }
  lane_assign_ = chain::MakeLaneAssign(config_.lane_key, lane_count);
  if (config_.metrics != nullptr) {
    for (auto& lane : lanes_) {
      lane->chain.set_metrics(config_.metrics);
      lane->mempool.set_metrics(config_.metrics);
    }
    seal_attempts_ = config_.metrics->GetCounter("node.seal.attempts");
    seal_sealed_ = config_.metrics->GetCounter("node.seal.sealed");
    seal_skipped_ = config_.metrics->GetCounter("node.seal.skipped");
    lane_sealed_ = config_.metrics->GetCounter("chain.lane.sealed");
    lane_deferred_ = config_.metrics->GetCounter("chain.lane.deferred");
    lane_batch_txs_ = config_.metrics->GetHistogram("chain.lane.batch_txs");
  }
}

ChainNode::~ChainNode() {
  *alive_ = false;
  // Same contract as Peer::~Peer: queued deliveries to this id become
  // dropped-as-detached instead of landing on freed memory.
  if (started_) network_->Detach(config_.id);
}

Json ChainNode::MetricsSnapshot() const {
  return config_.metrics != nullptr ? config_.metrics->Snapshot()
                                    : Json::MakeObject();
}

bool ChainNode::mempools_empty() const {
  for (const auto& lane : lanes_) {
    if (!lane->mempool.empty()) return false;
  }
  return true;
}

void ChainNode::Start() {
  if (started_) return;
  started_ = true;
  network_->Attach(config_.id, this);
  if (config_.sealing_enabled) {
    scheduler_->Schedule(config_.block_interval, [this, alive = alive_] {
      if (!*alive) return;
      SealTick();
    });
  }
}

Status ChainNode::EnablePersistence(const std::string& path) {
  if (block_store_.has_value()) {
    return Status::FailedPrecondition("persistence already enabled");
  }
  std::vector<chain::Block> recovered;
  MEDSYNC_ASSIGN_OR_RETURN(BlockStore store, BlockStore::Open(path,
                                                              &recovered));
  for (chain::Block& block : recovered) {
    const uint32_t lane = block.header.lane;
    if (lane >= lanes_.size()) {
      return Status::Corruption(
          StrCat("stored block names lane ", lane, " but this node runs ",
                 lanes_.size(), " lanes"));
    }
    Status added = lanes_[lane]->chain.AddBlock(std::move(block));
    if (!added.ok() && !added.IsAlreadyExists()) {
      return added.WithPrefix("replaying stored blocks");
    }
  }
  block_store_ = std::move(store);
  if (!recovered.empty()) {
    MEDSYNC_LOG(kInfo, config_.id)
        << "recovered " << recovered.size() << " stored blocks, lane-0 head "
        << lanes_[0]->chain.head().header.height;
    AdvanceExecution();
  }
  return Status::OK();
}

Status ChainNode::AddBlockPersist(chain::Block block) {
  const uint32_t lane = block.header.lane;
  if (lane >= lanes_.size()) {
    return Status::InvalidArgument(
        StrCat("block names lane ", lane, " but this node runs ",
               lanes_.size(), " lanes"));
  }
  // Copy needed for the append; AddBlock consumes the block.
  chain::Block stored = block;
  MEDSYNC_RETURN_IF_ERROR(lanes_[lane]->chain.AddBlock(std::move(block)));
  if (block_store_.has_value()) {
    Status appended = block_store_->Append(stored);
    if (!appended.ok()) {
      MEDSYNC_LOG(kWarning, config_.id)
          << "block store append failed: " << appended;
    }
  }
  return Status::OK();
}

void ChainNode::SealTick() {
  TrySealLanes();
  // Head announcement keeps lagging replicas live: a peer that missed
  // blocks (partition, drops) learns the current heads and chases the
  // missing ancestry via block_request. Without this, PoA rotation can
  // deadlock — if it is the lagging authority's turn, nobody else may seal
  // and no new block would ever reach it. One announce carries every
  // lane's head so catch-up stays a single broadcast per tick.
  Json heads = Json::MakeArray();
  for (size_t l = 0; l < lanes_.size(); ++l) {
    const Block& head = lanes_[l]->chain.head();
    if (head.header.height == 0) continue;
    Json entry = Json::MakeObject();
    entry.Set("lane", static_cast<int64_t>(l));
    entry.Set("hash", head.header.Hash().ToHex());
    entry.Set("height", head.header.height);
    heads.Append(std::move(entry));
  }
  if (!heads.AsArray().empty()) {
    Json announce = Json::MakeObject();
    announce.Set("heads", std::move(heads));
    network_->Broadcast(config_.id, "head_announce", announce);
  }
  // Re-gossip pooled transactions: on a lossy network, the broadcast made
  // at submission time may never have reached the authority whose turn it
  // is, and a transaction stuck in one node's pool would stall the sender
  // forever. Receivers dedupe, so this is idempotent. Lane order keeps the
  // rebroadcast sequence deterministic.
  for (const auto& lane : lanes_) {
    for (const Transaction& tx : lane->mempool.PendingTransactions()) {
      network_->Broadcast(config_.id, "tx", tx.ToJson());
    }
  }
  scheduler_->Schedule(config_.block_interval, [this, alive = alive_] {
    if (!*alive) return;
    SealTick();
  });
}

void ChainNode::MaybeRequestBlock(uint32_t lane, const std::string& hash_hex,
                                  uint64_t height, const net::NodeId& from) {
  if (height <= lanes_[lane]->chain.head().header.height) return;
  bool ok = false;
  crypto::Hash256 hash = crypto::Hash256::FromHex(hash_hex, &ok);
  if (!ok || lanes_[lane]->chain.BlockByHash(hash).ok()) return;
  Json request = Json::MakeObject();
  request.Set("hash", hash_hex);
  LogIfError(
      network_->Send(
          net::Message{config_.id, from, "block_request", request}),
      "chain", "head-announce block request");
}

void ChainNode::HandleHeadAnnounce(const net::Message& message) {
  const Json& heads = message.payload.At("heads");
  if (!heads.is_array()) return;
  for (const Json& entry : heads.AsArray()) {
    auto lane = entry.GetInt("lane");
    auto hash_hex = entry.GetString("hash");
    auto height = entry.GetInt("height");
    if (!lane.ok() || !hash_hex.ok() || !height.ok()) continue;
    if (*lane < 0 || static_cast<size_t>(*lane) >= lanes_.size()) continue;
    MaybeRequestBlock(static_cast<uint32_t>(*lane), *hash_hex,
                      static_cast<uint64_t>(*height), message.from);
  }
}

ChainNode::SealOutcome ChainNode::BuildLaneCandidate(Lane& lane) {
  SealOutcome out;
  std::vector<Transaction> txs =
      lane.mempool.BuildBlockCandidate(config_.max_block_txs, &out.deferred);

  // Evict candidates that are already on this lane's canonical chain. This
  // can happen after a reorg (the pool is not replayed) or when eviction
  // raced gossip; without the filter the sealed block would carry a
  // duplicate transaction, fail validation, and this authority's turn
  // would stall forever.
  std::set<std::string> stale;
  std::vector<Transaction> fresh;
  fresh.reserve(txs.size());
  for (Transaction& tx : txs) {
    const crypto::Hash256 id = tx.Id();
    if (lane.chain.FindTransaction(id, nullptr, nullptr)) {
      stale.insert(id.ToHex());
    } else {
      fresh.push_back(std::move(tx));
    }
  }
  if (!stale.empty()) lane.mempool.RemoveIncluded(stale);
  txs = std::move(fresh);

  if (txs.empty() && !config_.seal_empty_blocks) return out;

  Block block;
  block.header.lane = lane.chain.lane();
  block.header.height = lane.chain.head().header.height + 1;
  block.header.parent = lane.chain.head_hash();
  block.header.timestamp =
      std::max(scheduler_->Now(), lane.chain.head().header.timestamp);
  block.transactions = std::move(txs);
  // With multiple lanes the lane tasks themselves occupy the pool, so the
  // Merkle commitment stays serial per lane (nesting ParallelFor inside a
  // pooled task would have tasks waiting on workers they block).
  block.header.merkle_root = block.ComputeMerkleRoot(
      lanes_.size() > 1 ? nullptr : config_.pool);

  metrics::Inc(seal_attempts_);
  Status sealed = sealer_->Seal(&block);
  if (!sealed.ok()) {
    // Not our turn (PoA rotation) or no key — wait for the next tick.
    metrics::Inc(seal_skipped_);
    MEDSYNC_LOG(kDebug, config_.id) << "seal skipped: " << sealed;
    return out;
  }
  out.sealed = true;
  out.block = std::move(block);
  return out;
}

void ChainNode::TrySealLanes() {
  // Phase 1 — per-lane candidate + seal. Lanes touch disjoint state (their
  // own chain + mempool partition; metrics are atomic and commutative), so
  // the phase parallelizes over the shared pool without changing results.
  std::vector<SealOutcome> outcomes(lanes_.size());
  if (config_.pool != nullptr && lanes_.size() > 1) {
    threading::TaskGroup group(config_.pool);
    for (size_t l = 0; l < lanes_.size(); ++l) {
      group.Run([this, l, &outcomes] {
        outcomes[l] = BuildLaneCandidate(*lanes_[l]);
      });
    }
    group.Wait();
  } else {
    for (size_t l = 0; l < lanes_.size(); ++l) {
      outcomes[l] = BuildLaneCandidate(*lanes_[l]);
    }
  }

  // Phase 2 — lane-ordered insert, evict, broadcast: serial so persistence
  // appends, gossip send order, and execution stay deterministic.
  bool advanced = false;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    SealOutcome& out = outcomes[l];
    if (!out.sealed) continue;
    Status added = AddBlockPersist(out.block);
    if (!added.ok()) {
      MEDSYNC_LOG(kWarning, config_.id)
          << "own sealed block rejected: " << added;
      continue;
    }
    ++blocks_sealed_;
    metrics::Inc(seal_sealed_);
    metrics::Inc(lane_sealed_);
    metrics::Inc(lane_deferred_, out.deferred);
    metrics::Observe(lane_batch_txs_, out.block.transactions.size());
    MEDSYNC_LOG(kInfo, config_.id)
        << "sealed block " << out.block.header.height << " on lane "
        << out.block.header.lane << " (" << out.block.transactions.size()
        << " txs)";

    lanes_[l]->mempool.RemoveIncluded(
        lanes_[l]->chain.TxIdsCanonicalSince(out.block.header.parent));
    network_->Broadcast(config_.id, "block", out.block.ToJson());
    advanced = true;
  }
  if (advanced) AdvanceExecution();
}

Status ChainNode::SubmitTransaction(Transaction tx) {
  Json payload = tx.ToJson();
  const uint32_t lane = lane_assign_(tx);
  MEDSYNC_RETURN_IF_ERROR(lanes_[lane]->mempool.Add(std::move(tx)));
  network_->Broadcast(config_.id, "tx", payload);
  return Status::OK();
}

Result<Json> ChainNode::Query(const crypto::Address& contract,
                              const std::string& method, const Json& params,
                              const crypto::Address& caller) {
  return host_->StaticCall(contract, method, params, caller);
}

const contracts::Receipt* ChainNode::FindReceipt(
    const std::string& tx_id_hex) const {
  return host_->FindReceipt(tx_id_hex);
}

void ChainNode::SubscribeEvents(EventCallback callback) {
  event_callbacks_.push_back(std::move(callback));
}

void ChainNode::SubscribeReceipts(ReceiptCallback callback) {
  receipt_callbacks_.push_back(std::move(callback));
}

void ChainNode::OnMessage(const net::Message& message) {
  if (message.type == "tx") {
    HandleTransactionMessage(message);
  } else if (message.type == "block") {
    HandleBlockPayload(message.payload, message.from);
  } else if (message.type == "block_request") {
    HandleBlockRequest(message);
  } else if (message.type == "head_announce") {
    HandleHeadAnnounce(message);
  } else if (message.type == "block_response") {
    HandleBlockPayload(message.payload, message.from);
  } else {
    MEDSYNC_LOG(kDebug, config_.id)
        << "ignoring message type '" << message.type << "'";
  }
}

void ChainNode::HandleTransactionMessage(const net::Message& message) {
  Result<Transaction> tx = Transaction::FromJson(message.payload);
  if (!tx.ok()) {
    MEDSYNC_LOG(kWarning, config_.id) << "bad tx payload: " << tx.status();
    return;
  }
  const uint32_t lane = lane_assign_(*tx);
  // Skip if already on the lane's canonical chain (late gossip).
  if (lanes_[lane]->chain.FindTransaction(tx->Id(), nullptr, nullptr)) return;
  Status added = lanes_[lane]->mempool.Add(std::move(*tx));
  if (added.ok()) {
    // First sighting: relay so the gossip floods the network.
    network_->Broadcast(config_.id, "tx", message.payload);
  }
}

void ChainNode::AdoptOrphansOf(const std::string& parent_hash_hex) {
  auto it = orphans_.find(parent_hash_hex);
  if (it == orphans_.end()) return;
  std::vector<Block> children = std::move(it->second);
  orphans_.erase(it);
  for (Block& child : children) {
    std::string child_hash = child.header.Hash().ToHex();
    Status added = AddBlockPersist(std::move(child));
    if (added.ok()) AdoptOrphansOf(child_hash);
  }
}

Status ChainNode::AcceptBlock(Block block, const net::NodeId& from) {
  std::string block_hash = block.header.Hash().ToHex();
  std::string parent_hash = block.header.parent.ToHex();
  Status added = AddBlockPersist(block);
  if (added.IsNotFound()) {
    // Orphan: buffer it and ask the sender for the missing parent.
    orphans_[parent_hash].push_back(std::move(block));
    if (!from.empty()) {
      Json request = Json::MakeObject();
      request.Set("hash", parent_hash);
      LogIfError(
          network_->Send(
              net::Message{config_.id, from, "block_request", request}),
          "chain", "orphan parent request");
    }
    return added;
  }
  if (!added.ok()) return added;
  AdoptOrphansOf(block_hash);
  return Status::OK();
}

void ChainNode::HandleBlockPayload(const Json& payload,
                                   const net::NodeId& from) {
  Result<Block> block = Block::FromJson(payload);
  if (!block.ok()) {
    MEDSYNC_LOG(kWarning, config_.id)
        << "bad block payload: " << block.status();
    return;
  }
  const uint32_t lane = block->header.lane;
  if (lane >= lanes_.size()) {
    MEDSYNC_LOG(kWarning, config_.id)
        << "rejected block naming unknown lane " << lane;
    return;
  }
  const crypto::Hash256 old_head = lanes_[lane]->chain.head_hash();
  Status accepted = AcceptBlock(std::move(*block), from);
  if (accepted.IsAlreadyExists()) return;  // do not re-gossip duplicates
  if (!accepted.ok() && !accepted.IsNotFound()) {
    MEDSYNC_LOG(kWarning, config_.id) << "rejected block: " << accepted;
    return;
  }
  if (accepted.ok()) {
    network_->Broadcast(config_.id, "block", payload);
    // Evict what the head switch made canonical from the lane's pool
    // partition. After a reorg that includes the new branch's blocks below
    // the old height: a follower never seals, so no stale-candidate filter
    // would ever drop their transactions.
    std::set<std::string> included =
        lanes_[lane]->chain.TxIdsCanonicalSince(old_head);
    if (!included.empty()) lanes_[lane]->mempool.RemoveIncluded(included);
    ScheduleExecution();
  }
}

void ChainNode::ScheduleExecution() {
  if (execution_scheduled_) return;
  execution_scheduled_ = true;
  // Delay 0 queues BEHIND every already-delivered message of this instant
  // (both schedulers are FIFO within a timestamp), so a multi-lane tick's
  // blocks all land before the single batch runs.
  scheduler_->Schedule(0, [this, alive = alive_] {
    if (!*alive) return;
    execution_scheduled_ = false;
    AdvanceExecution();
  });
}

void ChainNode::HandleBlockRequest(const net::Message& message) {
  auto hash_hex = message.payload.GetString("hash");
  if (!hash_hex.ok()) return;
  bool ok = false;
  crypto::Hash256 hash = crypto::Hash256::FromHex(*hash_hex, &ok);
  if (!ok) return;
  // Block hashes are unique across lanes (the lane id is hashed into the
  // header), so the first hit is THE block.
  for (const auto& lane : lanes_) {
    Result<const Block*> block = lane->chain.BlockByHash(hash);
    if (!block.ok()) continue;
    LogIfError(
        network_->Send(net::Message{config_.id, message.from, "block_response",
                                    (*block)->ToJson()}),
        "chain", "block response");
    return;
  }
}

void ChainNode::AdvanceExecution() {
  // Check each lane's executed prefix against its canonical chain.
  // A reorg in ANY lane rebuilds contract state from scratch: the host is
  // a single cross-lane state machine, so rewinding one lane means
  // replaying all of them (cheap at simulation scale; a production node
  // would checkpoint).
  bool reorg = false;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    const std::vector<const Block*>& canonical =
        lanes_[l]->chain.CanonicalChain();
    const std::vector<std::string>& executed = lanes_[l]->executed_hashes;
    bool prefix_ok = executed.size() <= canonical.size();
    if (prefix_ok) {
      for (size_t i = 0; i < executed.size(); ++i) {
        if (canonical[i]->header.Hash().ToHex() != executed[i]) {
          prefix_ok = false;
          break;
        }
      }
    }
    if (!prefix_ok) reorg = true;
  }
  if (reorg) {
    MEDSYNC_LOG(kInfo, config_.id)
        << "reorg: replaying canonical chains of all lanes";
    host_->Reset();
    for (size_t l = 0; l < lanes_.size(); ++l) {
      lanes_[l]->executed_hashes.clear();
      lanes_[l]->executed_hashes.push_back(
          lanes_[l]->chain.genesis().header.Hash().ToHex());
    }
  }

  // Execute lane by lane, in lane order. Within a lane this is the usual
  // canonical-order execution; ACROSS lanes the interleave is not globally
  // ordered, which is sound because the lane key confines each shared
  // table's operations to one lane and cross-table contract operations
  // commute.
  struct Dispatch {
    Micros timestamp = 0;  // block timestamp
    uint64_t height = 0;   // block height (for the event callbacks)
    contracts::Receipt receipt;
  };
  std::vector<Dispatch> dispatches;
  for (size_t l = 0; l < lanes_.size(); ++l) {
    const std::vector<const Block*>& canonical =
        lanes_[l]->chain.CanonicalChain();
    std::vector<std::string>& executed = lanes_[l]->executed_hashes;
    for (size_t i = executed.size(); i < canonical.size(); ++i) {
      const Block& block = *canonical[i];
      std::vector<contracts::Receipt> receipts = host_->ExecuteBlock(block);
      executed.push_back(block.header.Hash().ToHex());
      for (contracts::Receipt& receipt : receipts) {
        dispatches.push_back(Dispatch{block.header.timestamp,
                                      block.header.height,
                                      std::move(receipt)});
      }
    }
  }
  // Notify subscribers in (block timestamp, tx id) order — content-defined,
  // so it is identical however the same transactions were spread across
  // lanes (and hence blocks). Per-table order is preserved: a table's
  // transactions all sit in one lane, whose blocks have strictly
  // increasing timestamps. NOT per-lane block order, on purpose — lane
  // count must not leak into subscriber-visible message order.
  std::sort(dispatches.begin(), dispatches.end(),
            [](const Dispatch& a, const Dispatch& b) {
              if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
              return a.receipt.tx_id < b.receipt.tx_id;
            });
  for (const Dispatch& dispatch : dispatches) {
    for (const ReceiptCallback& callback : receipt_callbacks_) {
      callback(dispatch.receipt);
    }
    if (dispatch.receipt.ok) {
      for (const contracts::Event& event : dispatch.receipt.events) {
        for (const EventCallback& callback : event_callbacks_) {
          callback(dispatch.height, event);
        }
      }
    }
  }
}

}  // namespace medsync::runtime
