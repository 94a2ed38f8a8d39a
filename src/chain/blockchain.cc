#include "chain/blockchain.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"
#include "common/threading/thread_pool.h"

namespace medsync::chain {

Block Blockchain::MakeGenesis(Micros timestamp, uint32_t lane) {
  Block genesis;
  genesis.header.height = 0;
  genesis.header.lane = lane;
  genesis.header.parent = crypto::Hash256::Zero();
  genesis.header.timestamp = timestamp;
  genesis.header.merkle_root = genesis.ComputeMerkleRoot();
  return genesis;
}

Blockchain::Blockchain(Block genesis, const Sealer* sealer,
                       ConflictKeyFn conflict_key, threading::ThreadPool* pool)
    : sealer_(sealer), conflict_key_(std::move(conflict_key)), pool_(pool),
      lane_(genesis.header.lane) {
  assert(genesis.header.height == 0);
  const std::string hash_hex = genesis.header.Hash().ToHex();
  Node node;
  for (const Transaction& tx : genesis.transactions) {
    node.tx_ids.push_back(tx.Id().ToHex());
  }
  node.block = std::move(genesis);
  blocks_.emplace(hash_hex, std::move(node));
  SwitchHead(hash_hex);
}

void Blockchain::set_metrics(metrics::MetricsRegistry* registry) {
  if (registry == nullptr) {
    validate_ok_ = validate_fail_ = blocks_accepted_ = nullptr;
    block_txs_ = nullptr;
    return;
  }
  validate_ok_ = registry->GetCounter("chain.validate.ok");
  validate_fail_ = registry->GetCounter("chain.validate.fail");
  blocks_accepted_ = registry->GetCounter("chain.blocks.accepted");
  block_txs_ = registry->GetHistogram("chain.block_txs");
}

Status Blockchain::ValidateStructure(const Block& block,
                                     std::vector<std::string>* tx_ids) const {
  Status status = ValidateStructureImpl(block, tx_ids);
  metrics::Inc(status.ok() ? validate_ok_ : validate_fail_);
  return status;
}

Status Blockchain::ValidateStructureImpl(
    const Block& block, std::vector<std::string>* tx_ids) const {
  if (block.header.merkle_root != block.ComputeMerkleRoot(pool_)) {
    return Status::Corruption("merkle root does not match transactions");
  }
  if (block.header.height > 0) {
    MEDSYNC_RETURN_IF_ERROR(sealer_->ValidateSeal(block.header));
  }
  // Signature checks are independent per transaction, so with a pool they
  // run concurrently up front; each result lands in its own slot. The
  // per-transaction rule loop below then consumes the precomputed verdicts
  // in block order, so which violation is REPORTED (signature vs duplicate
  // vs conflict, and for which transaction) matches the serial path
  // exactly.
  std::vector<uint8_t> sig_ok(block.transactions.size(), 0);
  threading::ParallelFor(pool_, 0, block.transactions.size(), /*grain=*/4,
                         [&block, &sig_ok](size_t begin, size_t end) {
                           for (size_t i = begin; i < end; ++i) {
                             sig_ok[i] = block.transactions[i]
                                             .VerifySignature();
                           }
                         });
  std::set<std::string> seen_ids;
  std::set<std::string> conflict_keys;
  for (size_t i = 0; i < block.transactions.size(); ++i) {
    const Transaction& tx = block.transactions[i];
    const crypto::Hash256 id = tx.Id();
    if (!sig_ok[i]) {
      return Status::PermissionDenied(
          StrCat("transaction ", id.ShortHex(), " has a bad signature"));
    }
    std::string id_hex = id.ToHex();
    if (!seen_ids.insert(id_hex).second) {
      return Status::InvalidArgument(
          StrCat("duplicate transaction ", id.ShortHex(), " in block"));
    }
    if (tx_ids != nullptr) tx_ids->push_back(std::move(id_hex));
    if (conflict_key_) {
      std::optional<std::string> key = conflict_key_(tx);
      if (key.has_value() && !conflict_keys.insert(*key).second) {
        return Status::Conflict(
            StrCat("block carries two transactions touching shared data '",
                   *key, "' (one-update-per-block rule)"));
      }
    }
  }
  return Status::OK();
}

std::vector<const Blockchain::Node*> Blockchain::BranchOffCanonical(
    const Node& node, uint64_t* shared) const {
  std::vector<const Node*> branch;
  const Node* cursor = &node;
  while (!IsCanonical(*cursor)) {
    branch.push_back(cursor);
    if (cursor->block.header.height == 0) {  // only while constructing
      *shared = 0;
      return branch;
    }
    cursor = &Parent(*cursor);
  }
  *shared = cursor->block.header.height + 1;
  return branch;
}

std::vector<const Blockchain::Node*> Blockchain::CanonicalFrom(
    uint64_t height) const {
  std::vector<const Node*> nodes;
  if (height >= canonical_.size()) return nodes;
  for (const Node* cursor = &NodeAt(head_hash_.ToHex());;
       cursor = &Parent(*cursor)) {
    nodes.push_back(cursor);
    if (cursor->block.header.height == height) return nodes;
  }
}

void Blockchain::SwitchHead(const std::string& new_head_hex) {
  // In the common case the new head's parent is the old head: nothing is
  // dropped and one block is appended.
  uint64_t shared = 0;
  const std::vector<const Node*> branch =
      BranchOffCanonical(NodeAt(new_head_hex), &shared);
  for (const Node* abandoned : CanonicalFrom(shared)) {
    for (const std::string& tx_id : abandoned->tx_ids) tx_index_.erase(tx_id);
  }
  canonical_.resize(shared);
  for (auto it = branch.rbegin(); it != branch.rend(); ++it) {
    const Node& node = **it;
    for (size_t i = 0; i < node.tx_ids.size(); ++i) {
      tx_index_[node.tx_ids[i]] = TxLocation{canonical_.size(), i};
    }
    canonical_.push_back(&node.block);
  }
  bool ok = false;
  head_hash_ = crypto::Hash256::FromHex(new_head_hex, &ok);
  assert(ok);
}

bool Blockchain::TxInAncestry(const Node& start,
                              const std::string& tx_id) const {
  // Walk the side branch (if any) block by block; below it the ancestry is
  // the canonical prefix, which the index answers.
  uint64_t shared = 0;
  for (const Node* node : BranchOffCanonical(start, &shared)) {
    if (std::find(node->tx_ids.begin(), node->tx_ids.end(), tx_id) !=
        node->tx_ids.end()) {
      return true;
    }
  }
  auto it = tx_index_.find(tx_id);
  return it != tx_index_.end() && it->second.height < shared;
}

Status Blockchain::AddBlock(Block block) {
  const std::string hash_hex = block.header.Hash().ToHex();
  if (blocks_.count(hash_hex) > 0) {
    return Status::AlreadyExists(StrCat("block ", hash_hex.substr(0, 8),
                                        " already known"));
  }
  if (block.header.lane != lane_) {
    return Status::InvalidArgument(
        StrCat("block ", hash_hex.substr(0, 8), " is stamped for lane ",
               block.header.lane, " but this chain seals lane ", lane_));
  }
  auto parent_it = blocks_.find(block.header.parent.ToHex());
  if (parent_it == blocks_.end()) {
    return Status::NotFound(StrCat("parent of block ", hash_hex.substr(0, 8),
                                   " unknown (orphan)"));
  }
  const Block& parent = parent_it->second.block;
  if (block.header.height != parent.header.height + 1) {
    return Status::InvalidArgument(
        StrCat("block height ", block.header.height,
               " does not follow parent height ", parent.header.height));
  }
  if (block.header.timestamp < parent.header.timestamp) {
    return Status::InvalidArgument("block timestamp precedes its parent");
  }
  Node node;
  MEDSYNC_RETURN_IF_ERROR(ValidateStructure(block, &node.tx_ids));
  for (const std::string& tx_id : node.tx_ids) {
    if (TxInAncestry(parent_it->second, tx_id)) {
      return Status::AlreadyExists(
          StrCat("transaction ", tx_id.substr(0, 8),
                 " already included in an ancestor block"));
    }
  }

  uint64_t new_height = block.header.height;
  metrics::Inc(blocks_accepted_);
  metrics::Observe(block_txs_, block.transactions.size());
  node.block = std::move(block);
  blocks_.emplace(hash_hex, std::move(node));

  // Longest-chain fork choice; ties break toward the smaller hash so every
  // node picks the same head given the same block set.
  const Block& current_head = head();
  if (new_height > current_head.header.height ||
      (new_height == current_head.header.height &&
       hash_hex < head_hash_.ToHex())) {
    SwitchHead(hash_hex);
  }
  return Status::OK();
}

const Block& Blockchain::genesis() const { return *canonical_.front(); }

const Block& Blockchain::head() const { return *canonical_.back(); }

Result<const Block*> Blockchain::BlockByHash(
    const crypto::Hash256& hash) const {
  auto it = blocks_.find(hash.ToHex());
  if (it == blocks_.end()) {
    return Status::NotFound(StrCat("no block ", hash.ShortHex()));
  }
  return &it->second.block;
}

Result<const Block*> Blockchain::BlockByHeight(uint64_t height) const {
  if (height >= canonical_.size()) {
    return Status::NotFound(StrCat("no block at height ", height));
  }
  return canonical_[height];
}

bool Blockchain::FindTransaction(const crypto::Hash256& id,
                                 const Transaction** tx,
                                 uint64_t* block_height) const {
  auto it = tx_index_.find(id.ToHex());
  if (it == tx_index_.end()) return false;
  const TxLocation& where = it->second;
  if (tx) *tx = &canonical_[where.height]->transactions[where.index];
  if (block_height) *block_height = where.height;
  return true;
}

std::set<std::string> Blockchain::TxIdsCanonicalSince(
    const crypto::Hash256& old_head) const {
  uint64_t shared = 0;
  BranchOffCanonical(NodeAt(old_head.ToHex()), &shared);
  std::set<std::string> ids;
  for (const Node* node : CanonicalFrom(shared)) {
    ids.insert(node->tx_ids.begin(), node->tx_ids.end());
  }
  return ids;
}

Status Blockchain::VerifyIntegrity() const {
  const std::vector<const Block*>& chain = canonical_;
  for (size_t i = 0; i < chain.size(); ++i) {
    const Block& block = *chain[i];
    if (i > 0) {
      if (block.header.parent != chain[i - 1]->header.Hash()) {
        return Status::Corruption(
            StrCat("hash linkage broken at height ", block.header.height));
      }
      MEDSYNC_RETURN_IF_ERROR(
          ValidateStructure(block).WithPrefix(
              StrCat("integrity check failed at height ",
                     block.header.height)));
    }
  }
  return Status::OK();
}

}  // namespace medsync::chain
