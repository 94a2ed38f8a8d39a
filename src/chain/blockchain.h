#ifndef MEDSYNC_CHAIN_BLOCKCHAIN_H_
#define MEDSYNC_CHAIN_BLOCKCHAIN_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/block.h"
#include "chain/sealer.h"

namespace medsync::chain {

/// A validated block tree with longest-chain fork choice.
///
/// Beyond structural validation (parent linkage, Merkle root, seal,
/// transaction signatures), the chain enforces the paper's ordering rule
/// from Section III-B: "one block can contain one transaction at most on
/// some shared data at one time". The rule is injected as a `ConflictKeyFn`
/// that maps a transaction to the shared-data id it touches (or nullopt for
/// non-conflicting transactions); a block carrying two transactions with
/// the same key is invalid everywhere, so no sealer can sneak concurrent
/// updates to one shared table into a single block.
class Blockchain {
 public:
  using ConflictKeyFn =
      std::function<std::optional<std::string>(const Transaction&)>;

  /// `sealer` validates seals of incoming blocks; it must outlive the
  /// chain. `conflict_key` may be null (rule disabled). `pool` (optional,
  /// must outlive the chain) parallelizes block validation — transaction
  /// signature checks and the Merkle-root recomputation; a null pool keeps
  /// validation fully serial.
  Blockchain(Block genesis, const Sealer* sealer,
             ConflictKeyFn conflict_key = nullptr,
             threading::ThreadPool* pool = nullptr);

  // The canonical index points into `blocks_`, so a copy would point into
  // the original.
  Blockchain(const Blockchain&) = delete;
  Blockchain& operator=(const Blockchain&) = delete;

  void set_thread_pool(threading::ThreadPool* pool) { pool_ = pool; }

  /// Attaches chain.validate.ok/fail, chain.blocks.accepted and the
  /// chain.block_txs histogram. The registry must outlive the chain;
  /// nullptr detaches.
  void set_metrics(metrics::MetricsRegistry* registry);

  /// A deterministic genesis block (height 0, zero parent, no seal).
  /// `lane` stamps the genesis header so per-lane chains hash distinctly
  /// and every descendant block is pinned to the lane (see AddBlock).
  static Block MakeGenesis(Micros timestamp, uint32_t lane = 0);

  /// Validates and inserts `block`. Returns:
  ///  * OK — inserted (the head may or may not have changed);
  ///  * NotFound — parent unknown (orphan; caller should fetch the parent);
  ///  * AlreadyExists — duplicate block;
  ///  * anything else — the block is invalid and was rejected.
  Status AddBlock(Block block);

  /// Validation only (everything except parent-linkage checks); exposed for
  /// tests and for mempool candidate vetting. `tx_ids` (optional) receives
  /// the hex ids of the block's transactions, in block order.
  Status ValidateStructure(const Block& block,
                           std::vector<std::string>* tx_ids = nullptr) const;

  const Block& genesis() const;
  const Block& head() const;
  /// The lane this chain seals (from the genesis header). AddBlock rejects
  /// blocks stamped for another lane, so one lane's history can never
  /// splice into another's even if a hash collision of heights occurs.
  uint32_t lane() const { return lane_; }
  uint64_t height() const { return head().header.height; }
  const crypto::Hash256& head_hash() const { return head_hash_; }
  size_t block_count() const { return blocks_.size(); }

  Result<const Block*> BlockByHash(const crypto::Hash256& hash) const;

  /// The block at `height` on the CANONICAL (head) chain. O(1).
  Result<const Block*> BlockByHeight(uint64_t height) const;

  /// Genesis..head, in height order. The reference stays valid for the
  /// chain's lifetime; its contents change when the head does.
  const std::vector<const Block*>& CanonicalChain() const {
    return canonical_;
  }

  /// Whether the canonical chain includes transaction `id`; if found and
  /// the out-params are non-null, reports where. O(1): an index lookup.
  bool FindTransaction(const crypto::Hash256& id, const Transaction** tx,
                       uint64_t* block_height) const;

  /// Hex ids of the transactions in the canonical blocks that are not in
  /// the ancestry of `old_head` (a block of this chain, typically an
  /// earlier head): what head switches since `old_head` made canonical.
  std::set<std::string> TxIdsCanonicalSince(
      const crypto::Hash256& old_head) const;

  /// Re-validates every block on the canonical chain from genesis — the
  /// audit-mode tamper check (any bit flipped in a stored block breaks its
  /// hash linkage or Merkle root).
  Status VerifyIntegrity() const;

 private:
  struct Node {
    Block block;
    /// Hex ids of `block.transactions`, in block order, computed once at
    /// acceptance.
    std::vector<std::string> tx_ids;
  };
  /// Where a canonical transaction sits.
  struct TxLocation {
    uint64_t height = 0;
    size_t index = 0;  // in the block's transactions
  };

  const Node& NodeAt(const std::string& hash_hex) const {
    return blocks_.at(hash_hex);
  }
  const Node& Parent(const Node& node) const {
    return NodeAt(node.block.header.parent.ToHex());
  }
  bool IsCanonical(const Node& node) const {
    const uint64_t h = node.block.header.height;
    return h < canonical_.size() && canonical_[h] == &node.block;
  }

  /// The blocks of `node`'s ancestry (itself included) that are not
  /// canonical, tip first. `shared` receives how many canonical blocks the
  /// ancestry shares (the height just above the fork point).
  std::vector<const Node*> BranchOffCanonical(const Node& node,
                                              uint64_t* shared) const;
  /// The canonical blocks at heights >= `height`, head first.
  std::vector<const Node*> CanonicalFrom(uint64_t height) const;

  /// Makes the block `new_head_hex` the head: drops the abandoned branch's
  /// tx ids from the index and adds the new branch's. The only code that
  /// writes `head_hash_`, `canonical_` and `tx_index_`.
  void SwitchHead(const std::string& new_head_hex);

  /// Whether `tx_id` appears in `start` or any of its ancestors.
  bool TxInAncestry(const Node& start, const std::string& tx_id) const;

  /// ValidateStructure minus the ok/fail accounting.
  Status ValidateStructureImpl(const Block& block,
                               std::vector<std::string>* tx_ids) const;

  const Sealer* sealer_;
  ConflictKeyFn conflict_key_;
  threading::ThreadPool* pool_;
  uint32_t lane_ = 0;
  std::map<std::string, Node> blocks_;  // keyed by hex block hash
  crypto::Hash256 head_hash_;
  /// The canonical chain, genesis..head: canonical_[h] is at height h.
  std::vector<const Block*> canonical_;
  /// Hex id -> location of every transaction on the canonical chain.
  std::unordered_map<std::string, TxLocation> tx_index_;

  metrics::Counter* validate_ok_ = nullptr;
  metrics::Counter* validate_fail_ = nullptr;
  metrics::Counter* blocks_accepted_ = nullptr;
  metrics::Histogram* block_txs_ = nullptr;
};

}  // namespace medsync::chain

#endif  // MEDSYNC_CHAIN_BLOCKCHAIN_H_
