// Multi-node integration tests: gossip convergence, the contract replica
// determinism guarantee, partition catch-up, and reorg re-execution.

#include "runtime/chain_node.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "contracts/metadata_contract.h"

namespace medsync::runtime {
namespace {

class NodeClusterTest : public ::testing::Test {
 protected:
  static constexpr Micros kBlockInterval = 1 * kMicrosPerSecond;

  void BuildCluster(size_t n, bool all_seal = true) {
    network_ = std::make_unique<net::SimNetwork>(&simulator_,
                                              net::LatencyModel{
                                                  10 * kMicrosPerMilli,
                                                  5 * kMicrosPerMilli},
                                              /*seed=*/99);
    std::vector<crypto::Address> authorities;
    std::vector<std::shared_ptr<const crypto::KeyPair>> keys;
    for (size_t i = 0; i < n; ++i) {
      auto key = std::make_shared<crypto::KeyPair>(
          crypto::KeyPair::FromSeed("cluster-authority-" +
                                    std::to_string(i)));
      authorities.push_back(key->address());
      keys.push_back(std::move(key));
    }
    chain::Block genesis = chain::Blockchain::MakeGenesis(simulator_.Now());
    for (size_t i = 0; i < n; ++i) {
      auto sealer = std::make_shared<chain::PoaSealer>(authorities, keys[i]);
      auto host = std::make_unique<contracts::ContractHost>();
      host->RegisterType("metadata", contracts::MetadataContract::Create);
      NodeConfig config;
      config.id = "node-" + std::to_string(i);
      config.block_interval = kBlockInterval;
      config.sealing_enabled = all_seal || i == 0;
      nodes_.push_back(std::make_unique<ChainNode>(
          config, &simulator_, network_.get(), std::move(sealer), genesis,
          contracts::SharedDataConflictKey, std::move(host)));
    }
    for (auto& node : nodes_) node->Start();
  }

  chain::Transaction DeployTx() {
    chain::Transaction tx;
    tx.from = client_.address();
    tx.to = crypto::Address::Zero();
    tx.nonce = nonce_++;
    tx.method = "metadata";
    tx.params = Json::MakeObject();
    tx.timestamp = simulator_.Now();
    tx.Sign(client_);
    return tx;
  }

  net::Simulator simulator_;
  std::unique_ptr<net::SimNetwork> network_;
  std::vector<std::unique_ptr<ChainNode>> nodes_;
  crypto::KeyPair client_ = crypto::KeyPair::FromSeed("cluster-client");
  uint64_t nonce_ = 0;
};

TEST_F(NodeClusterTest, TransactionGossipsAndConfirmsEverywhere) {
  BuildCluster(3);
  chain::Transaction tx = DeployTx();
  crypto::Hash256 id = tx.Id();
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(tx).ok());
  simulator_.RunFor(5 * kBlockInterval);

  for (auto& node : nodes_) {
    EXPECT_TRUE(node->blockchain().FindTransaction(id, nullptr, nullptr))
        << node->config().id;
    const contracts::Receipt* receipt = node->FindReceipt(id.ToHex());
    ASSERT_NE(receipt, nullptr) << node->config().id;
    EXPECT_TRUE(receipt->ok);
  }
}

TEST_F(NodeClusterTest, ReplicasConvergeToIdenticalStateAndHead) {
  BuildCluster(4);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(nodes_[i % 4]->SubmitTransaction(DeployTx()).ok());
  }
  simulator_.RunFor(10 * kBlockInterval);

  const crypto::Hash256 head = nodes_[0]->blockchain().head().header.Hash();
  const std::string fingerprint = nodes_[0]->host().StateFingerprint();
  for (auto& node : nodes_) {
    EXPECT_EQ(node->blockchain().head().header.Hash(), head)
        << node->config().id;
    EXPECT_EQ(node->host().StateFingerprint(), fingerprint)
        << node->config().id;
    EXPECT_TRUE(node->blockchain().VerifyIntegrity().ok());
  }
}

TEST_F(NodeClusterTest, DuplicateSubmissionRejectedLocally) {
  BuildCluster(2);
  chain::Transaction tx = DeployTx();
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(tx).ok());
  EXPECT_TRUE(nodes_[0]->SubmitTransaction(tx).IsAlreadyExists());
}

TEST_F(NodeClusterTest, PartitionedNodeCatchesUpAfterHeal) {
  BuildCluster(3);
  // Cut node-2 off from both peers.
  network_->SetLinkDown("node-0", "node-2", true);
  network_->SetLinkDown("node-1", "node-2", true);

  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(6 * kBlockInterval);
  uint64_t connected_height = nodes_[0]->blockchain().height();
  EXPECT_GT(connected_height, 0u);
  EXPECT_EQ(nodes_[2]->blockchain().height(), 0u);  // stuck at genesis

  // Heal; the next sealed block triggers parent-chasing catch-up on node-2.
  network_->SetLinkDown("node-0", "node-2", false);
  network_->SetLinkDown("node-1", "node-2", false);
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(8 * kBlockInterval);

  EXPECT_EQ(nodes_[2]->blockchain().head().header.Hash(),
            nodes_[0]->blockchain().head().header.Hash());
  EXPECT_EQ(nodes_[2]->host().StateFingerprint(),
            nodes_[0]->host().StateFingerprint());
}

TEST_F(NodeClusterTest, EventSubscriptionFiresOnExecution) {
  BuildCluster(2);
  std::vector<std::string> event_names;
  nodes_[1]->SubscribeEvents(
      [&](uint64_t, const contracts::Event& event) {
        event_names.push_back(event.name);
      });
  int receipts_seen = 0;
  nodes_[1]->SubscribeReceipts(
      [&](const contracts::Receipt&) { ++receipts_seen; });

  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(5 * kBlockInterval);
  ASSERT_EQ(event_names.size(), 1u);
  EXPECT_EQ(event_names[0], "ContractDeployed");
  EXPECT_EQ(receipts_seen, 1);
}

TEST_F(NodeClusterTest, QueryAgainstExecutedState) {
  BuildCluster(2);
  chain::Transaction deploy = DeployTx();
  crypto::Address contract = contracts::ContractHost::DeploymentAddress(deploy);
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(deploy).ok());
  simulator_.RunFor(4 * kBlockInterval);

  Result<Json> tables = nodes_[1]->Query(contract, "list_tables",
                                         Json::MakeObject(),
                                         client_.address());
  ASSERT_TRUE(tables.ok()) << tables.status();
  EXPECT_EQ(tables->size(), 0u);
}

TEST_F(NodeClusterTest, ReorgReexecutesCanonicalChain) {
  // Two nodes partitioned from each other seal divergent branches; after
  // healing, the loser reorgs onto the winner's branch and its contract
  // state matches exactly.
  BuildCluster(2);
  network_->SetLinkDown("node-0", "node-1", true);

  // node-0 seals at heights where it is the authority (even heights with
  // round-robin over 2 authorities: height 1 -> authority 1, so give each
  // side a deploy and let them advance as far as their turns allow).
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  ASSERT_TRUE(nodes_[1]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(6 * kBlockInterval);

  uint64_t h0 = nodes_[0]->blockchain().height();
  uint64_t h1 = nodes_[1]->blockchain().height();
  // With strict round-robin both sides stall after their own turn; at
  // least one branch must exist.
  EXPECT_GE(h0 + h1, 1u);

  network_->SetLinkDown("node-0", "node-1", false);
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(10 * kBlockInterval);

  EXPECT_EQ(nodes_[0]->blockchain().head().header.Hash(),
            nodes_[1]->blockchain().head().header.Hash());
  EXPECT_EQ(nodes_[0]->host().StateFingerprint(),
            nodes_[1]->host().StateFingerprint());
}

// Regression: block acceptance evicted only the transactions of canonical
// blocks above the OLD head's height. A reorg onto a known side branch
// makes that branch's lower blocks canonical too, and their transactions
// stayed pooled; a follower never seals, so nothing else dropped them.
TEST_F(NodeClusterTest, ReorgEvictsSideBranchTransactionsFromFollowerPool) {
  network_ = std::make_unique<net::SimNetwork>(&simulator_,
                                               net::LatencyModel{}, 7);
  auto authority = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("follower-test-authority"));
  const std::vector<crypto::Address> authorities{authority->address()};
  chain::PoaSealer test_sealer(authorities, authority);
  auto host = std::make_unique<contracts::ContractHost>();
  host->RegisterType("metadata", contracts::MetadataContract::Create);
  NodeConfig config;
  config.id = "follower";
  config.block_interval = kBlockInterval;
  config.sealing_enabled = false;
  const chain::Block genesis =
      chain::Blockchain::MakeGenesis(simulator_.Now());
  ChainNode follower(config, &simulator_, network_.get(),
                     std::make_shared<chain::PoaSealer>(authorities, nullptr),
                     genesis, contracts::SharedDataConflictKey,
                     std::move(host));
  follower.Start();

  const chain::Transaction t = DeployTx();
  ASSERT_TRUE(follower.SubmitTransaction(t).ok());

  auto make_block = [&](const chain::Block& parent,
                        std::vector<chain::Transaction> txs, Micros offset) {
    chain::Block block;
    block.header.height = parent.header.height + 1;
    block.header.parent = parent.header.Hash();
    block.header.timestamp = parent.header.timestamp + offset;
    block.transactions = std::move(txs);
    block.header.merkle_root = block.ComputeMerkleRoot();
    EXPECT_TRUE(test_sealer.Seal(&block).ok());
    return block;
  };
  // B1 carries t; A1 is empty and, by the smaller-hash tie-break, wins
  // height 1. Vary A1's timestamp until it does.
  const chain::Block b1 = make_block(genesis, {t}, 1);
  chain::Block a1;
  for (Micros offset = 2;; ++offset) {
    a1 = make_block(genesis, {}, offset);
    if (a1.header.Hash().ToHex() < b1.header.Hash().ToHex()) break;
  }
  const chain::Block b2 = make_block(b1, {}, 1);
  auto deliver = [&](const chain::Block& block) {
    ASSERT_TRUE(network_
                    ->Send(net::Message{"tester", "follower", "block",
                                        block.ToJson()})
                    .ok());
    simulator_.RunFor(kBlockInterval);
  };

  deliver(a1);
  deliver(b1);
  ASSERT_EQ(follower.blockchain().head().header.Hash(), a1.header.Hash());
  EXPECT_TRUE(follower.mempool().Contains(t.Id()));  // t is not canonical

  deliver(b2);  // reorg: B1 and B2 become canonical
  ASSERT_EQ(follower.blockchain().head().header.Hash(), b2.header.Hash());
  simulator_.RunFor(10 * kBlockInterval);
  uint64_t height = 0;
  EXPECT_TRUE(follower.blockchain().FindTransaction(t.Id(), nullptr, &height));
  EXPECT_EQ(height, 1u);
  EXPECT_FALSE(follower.mempool().Contains(t.Id()));
  EXPECT_TRUE(follower.mempool().empty());
}

TEST_F(NodeClusterTest, MalformedMessagesAreIgnoredWithoutCrashing) {
  BuildCluster(2);
  auto send = [&](const std::string& type, Json payload) {
    IgnoreStatusForTest(network_->Send(net::Message{"node-1", "node-0", type,
                                      std::move(payload)}));
  };
  // Garbage of every message type the node handles.
  send("tx", Json("not an object"));
  send("tx", Json::MakeObject());
  send("block", Json(42));
  send("block", Json::MakeObject());
  send("block_request", Json::MakeObject());
  Json bad_hash = Json::MakeObject();
  bad_hash.Set("hash", "zz-not-hex");
  send("block_request", bad_hash);
  Json bad_announce = Json::MakeObject();
  bad_announce.Set("hash", "zz");
  bad_announce.Set("height", 99);
  send("head_announce", bad_announce);
  send("head_announce", Json::MakeObject());
  send("utterly_unknown_type", Json("x"));
  // A block whose JSON parses but whose signature material is junk.
  chain::Block junk;
  junk.header.height = 1;
  junk.header.parent = nodes_[0]->blockchain().genesis().header.Hash();
  junk.header.merkle_root = junk.ComputeMerkleRoot();
  send("block", junk.ToJson());  // unsigned PoA block -> rejected

  simulator_.RunFor(3 * kBlockInterval);
  // The node is alive and still functions normally.
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(5 * kBlockInterval);
  EXPECT_GE(nodes_[0]->blockchain().height(), 1u);
}

TEST_F(NodeClusterTest, PeersIgnoreForeignProtocolMessages) {
  BuildCluster(2);
  // Chain-node gossip types sent to a node that is mid-catch-up must not
  // corrupt state: replay the SAME valid block twice and interleave stale
  // head announcements.
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(4 * kBlockInterval);
  const chain::Block& head = nodes_[0]->blockchain().head();
  for (int i = 0; i < 3; ++i) {
    IgnoreStatusForTest(network_->Send(
        net::Message{"node-1", "node-0", "block", head.ToJson()}));
    Json entry = Json::MakeObject();
    entry.Set("lane", static_cast<int64_t>(0));
    entry.Set("hash", head.header.Hash().ToHex());
    entry.Set("height", head.header.height);
    Json heads = Json::MakeArray();
    heads.Append(std::move(entry));
    Json stale = Json::MakeObject();
    stale.Set("heads", std::move(heads));
    IgnoreStatusForTest(network_->Send(
        net::Message{"node-1", "node-0", "head_announce", stale}));
  }
  simulator_.RunFor(3 * kBlockInterval);
  EXPECT_TRUE(nodes_[0]->blockchain().VerifyIntegrity().ok());
  EXPECT_EQ(nodes_[0]->blockchain().head().header.Hash(),
            nodes_[1]->blockchain().head().header.Hash());
}

TEST_F(NodeClusterTest, OnlyLaneHeadsAnnouncesTriggerBlockRequests) {
  BuildCluster(1);
  // Records what node-0 sends back to the announcer.
  struct Recorder : net::Endpoint {
    void OnMessage(const net::Message& message) override {
      types.push_back(message.type);
    }
    std::vector<std::string> types;
  } tester;
  network_->Attach("tester", &tester);
  const std::string unknown(64, 'a');  // a block node-0 has never seen
  auto announce = [&](Json payload) {
    tester.types.clear();
    IgnoreStatusForTest(network_->Send(
        net::Message{"tester", "node-0", "head_announce", std::move(payload)}));
    simulator_.RunFor(kBlockInterval / 2);
  };

  // The flat single-lane form {hash, height} is not a head announce.
  Json flat = Json::MakeObject();
  flat.Set("hash", unknown);
  flat.Set("height", 99);
  announce(flat);
  EXPECT_EQ(std::count(tester.types.begin(), tester.types.end(),
                       "block_request"),
            0);

  // The same head in the lane form is chased.
  Json entry = Json::MakeObject();
  entry.Set("lane", static_cast<int64_t>(0));
  entry.Set("hash", unknown);
  entry.Set("height", 99);
  Json heads = Json::MakeArray();
  heads.Append(std::move(entry));
  Json lane_form = Json::MakeObject();
  lane_form.Set("heads", std::move(heads));
  announce(lane_form);
  EXPECT_EQ(std::count(tester.types.begin(), tester.types.end(),
                       "block_request"),
            1);
  network_->Detach("tester");
}

TEST_F(NodeClusterTest, SealEmptyBlocksOption) {
  network_ = std::make_unique<net::SimNetwork>(&simulator_, net::LatencyModel{},
                                            7);
  auto key = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("solo-authority"));
  auto sealer = std::make_shared<chain::PoaSealer>(
      std::vector<crypto::Address>{key->address()}, key);
  auto host = std::make_unique<contracts::ContractHost>();
  NodeConfig config;
  config.id = "solo";
  config.block_interval = kBlockInterval;
  config.sealing_enabled = true;
  config.seal_empty_blocks = true;
  ChainNode node(config, &simulator_, network_.get(), std::move(sealer),
                 chain::Blockchain::MakeGenesis(simulator_.Now()),
                 nullptr, std::move(host));
  node.Start();
  simulator_.RunFor(5 * kBlockInterval);
  EXPECT_GE(node.blockchain().height(), 4u);
  EXPECT_GE(node.blocks_sealed(), 4u);
}

// Regression (found by the ASan preset): SealTick reschedules itself with
// a raw `this`, so destroying a sealing node while its next tick was still
// queued in the shared simulator was a heap-use-after-free once the event
// fired. The liveness token (ChainNode::alive_, same idiom as Peer) must
// turn those queued ticks into no-ops, and the destructor must detach the
// endpoint so queued deliveries count as dropped instead of landing on
// freed memory.
TEST_F(NodeClusterTest, DestroyedNodeLeavesQueuedSealTicksAndTrafficInert) {
  BuildCluster(3);
  ASSERT_TRUE(nodes_[1]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(3 * kBlockInterval);
  ASSERT_GE(nodes_[1]->blockchain().height(), 1u);

  // Destroy node-1 mid-protocol: its next SealTick and in-flight gossip to
  // it are still queued.
  ASSERT_TRUE(network_->IsAttached("node-1"));
  nodes_[1].reset();
  EXPECT_FALSE(network_->IsAttached("node-1"));

  // Drive well past the queued events. Under -DMEDSYNC_SANITIZE=address
  // this is where the dangling tick used to fire. (Liveness is expectedly
  // lost once PoA rotation reaches the dead authority's turn — the
  // survivors just must not touch freed memory and must agree.)
  uint64_t height_at_destroy = nodes_[0]->blockchain().height();
  ASSERT_TRUE(nodes_[0]->SubmitTransaction(DeployTx()).ok());
  simulator_.RunFor(5 * kBlockInterval);
  EXPECT_GE(nodes_[0]->blockchain().height(), height_at_destroy);
  EXPECT_EQ(nodes_[0]->blockchain().head().header.Hash(),
            nodes_[2]->blockchain().head().header.Hash());
}

}  // namespace
}  // namespace medsync::runtime
