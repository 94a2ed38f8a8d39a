#include "chain/blockchain.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "common/threading/thread_pool.h"
#include "contracts/metadata_contract.h"

namespace medsync::chain {
namespace {

class BlockchainTest : public ::testing::Test {
 protected:
  BlockchainTest()
      : signer_(std::make_shared<crypto::KeyPair>(
            crypto::KeyPair::FromSeed("authority"))),
        sealer_({signer_->address()}, signer_),
        genesis_(Blockchain::MakeGenesis(1000)),
        chain_(genesis_, &sealer_, contracts::SharedDataConflictKey) {}

  Transaction MakeTx(const std::string& seed, uint64_t nonce,
                     const std::string& table_id = "") {
    crypto::KeyPair key = crypto::KeyPair::FromSeed(seed);
    Transaction tx;
    tx.from = key.address();
    tx.to = crypto::KeyPair::FromSeed("target").address();
    tx.nonce = nonce;
    tx.method = table_id.empty() ? "ack_update" : "request_update";
    Json params = Json::MakeObject();
    if (!table_id.empty()) params.Set("table_id", table_id);
    tx.params = std::move(params);
    tx.timestamp = 2000;
    tx.Sign(key);
    return tx;
  }

  Block MakeBlock(const Block& parent, std::vector<Transaction> txs,
                  Micros timestamp = 0) {
    Block block;
    block.header.height = parent.header.height + 1;
    block.header.parent = parent.header.Hash();
    block.header.timestamp =
        timestamp ? timestamp : parent.header.timestamp + 1;
    block.transactions = std::move(txs);
    block.header.merkle_root = block.ComputeMerkleRoot();
    EXPECT_TRUE(sealer_.Seal(&block).ok());
    return block;
  }

  std::shared_ptr<crypto::KeyPair> signer_;
  PoaSealer sealer_;
  Block genesis_;
  Blockchain chain_;
};

TEST_F(BlockchainTest, GenesisIsHead) {
  EXPECT_EQ(chain_.height(), 0u);
  EXPECT_EQ(chain_.head().header.Hash(), genesis_.header.Hash());
  EXPECT_EQ(chain_.block_count(), 1u);
}

TEST_F(BlockchainTest, AddValidBlockAdvancesHead) {
  Block b1 = MakeBlock(genesis_, {MakeTx("alice", 1)});
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  EXPECT_EQ(chain_.height(), 1u);
  EXPECT_EQ(chain_.head().header.Hash(), b1.header.Hash());
}

TEST_F(BlockchainTest, DuplicateBlockRejected) {
  Block b1 = MakeBlock(genesis_, {});
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  EXPECT_TRUE(chain_.AddBlock(b1).IsAlreadyExists());
}

TEST_F(BlockchainTest, OrphanBlockReportsNotFound) {
  Block b1 = MakeBlock(genesis_, {});
  Block b2 = MakeBlock(b1, {});
  EXPECT_TRUE(chain_.AddBlock(b2).IsNotFound());
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  EXPECT_TRUE(chain_.AddBlock(b2).ok());
  EXPECT_EQ(chain_.height(), 2u);
}

TEST_F(BlockchainTest, WrongHeightRejected) {
  Block bad = MakeBlock(genesis_, {});
  bad.header.height = 5;
  bad.header.merkle_root = bad.ComputeMerkleRoot();
  ASSERT_TRUE(sealer_.Seal(&bad).ok());
  EXPECT_TRUE(chain_.AddBlock(bad).IsInvalidArgument());
}

TEST_F(BlockchainTest, BadMerkleRootRejected) {
  Block bad = MakeBlock(genesis_, {MakeTx("alice", 1)});
  bad.transactions.push_back(MakeTx("bob", 1));  // root now stale
  EXPECT_TRUE(chain_.AddBlock(bad).IsCorruption());
}

TEST_F(BlockchainTest, BadSealRejected) {
  Block bad = MakeBlock(genesis_, {});
  bad.header.seal = crypto::KeyPair::FromSeed("impostor").Sign("x");
  Status s = chain_.AddBlock(bad);
  EXPECT_TRUE(s.IsPermissionDenied() || s.IsCorruption()) << s;
}

TEST_F(BlockchainTest, BadTransactionSignatureRejected) {
  Transaction tx = MakeTx("alice", 1);
  tx.params.Set("tampered", true);  // invalidates the signature
  Block bad = MakeBlock(genesis_, {tx});
  EXPECT_TRUE(chain_.AddBlock(bad).IsPermissionDenied());
}

TEST_F(BlockchainTest, TimestampBeforeParentRejected) {
  Block bad = MakeBlock(genesis_, {}, /*timestamp=*/500);  // < genesis 1000
  EXPECT_TRUE(chain_.AddBlock(bad).IsInvalidArgument());
}

TEST_F(BlockchainTest, ConflictRuleOneUpdatePerTablePerBlock) {
  // Two request_update transactions for the SAME shared table in one block
  // violate the paper's Section III-B rule.
  Block bad = MakeBlock(genesis_, {MakeTx("alice", 1, "D13&D31"),
                                   MakeTx("bob", 1, "D13&D31")});
  EXPECT_TRUE(chain_.AddBlock(bad).IsConflict());

  // Different tables in one block are fine.
  Block good = MakeBlock(genesis_, {MakeTx("alice", 2, "D13&D31"),
                                    MakeTx("bob", 2, "D23&D32")});
  EXPECT_TRUE(chain_.AddBlock(good).ok());

  // Non-update transactions are exempt from the rule.
  Block acks = MakeBlock(good, {MakeTx("alice", 3), MakeTx("bob", 3)});
  EXPECT_TRUE(chain_.AddBlock(acks).ok());
}

TEST_F(BlockchainTest, DuplicateTransactionInBlockRejected) {
  Transaction tx = MakeTx("alice", 1);
  Block bad = MakeBlock(genesis_, {tx, tx});
  EXPECT_TRUE(chain_.AddBlock(bad).IsInvalidArgument());
}

TEST_F(BlockchainTest, TransactionReplayAcrossBlocksRejected) {
  Transaction tx = MakeTx("alice", 1);
  Block b1 = MakeBlock(genesis_, {tx});
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  Block b2 = MakeBlock(b1, {tx});
  EXPECT_TRUE(chain_.AddBlock(b2).IsAlreadyExists());
}

TEST_F(BlockchainTest, LongestChainForkChoice) {
  Block a1 = MakeBlock(genesis_, {MakeTx("alice", 1)});
  Block b1 = MakeBlock(genesis_, {MakeTx("bob", 1)});
  ASSERT_TRUE(chain_.AddBlock(a1).ok());
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  // Tie at height 1: head is the smaller hash (deterministic).
  std::string expected_head =
      std::min(a1.header.Hash().ToHex(), b1.header.Hash().ToHex());
  EXPECT_EQ(chain_.head().header.Hash().ToHex(), expected_head);

  // Extend the branch that lost the tie — it must now win by height.
  const Block& loser =
      (expected_head == a1.header.Hash().ToHex()) ? b1 : a1;
  Block b2 = MakeBlock(loser, {MakeTx("carol", 1)});
  ASSERT_TRUE(chain_.AddBlock(b2).ok());
  EXPECT_EQ(chain_.height(), 2u);
  EXPECT_EQ(chain_.head().header.Hash(), b2.header.Hash());
}

TEST_F(BlockchainTest, CanonicalChainAndLookups) {
  Block b1 = MakeBlock(genesis_, {MakeTx("alice", 1)});
  Block b2 = MakeBlock(b1, {MakeTx("bob", 1)});
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  ASSERT_TRUE(chain_.AddBlock(b2).ok());

  std::vector<const Block*> canonical = chain_.CanonicalChain();
  ASSERT_EQ(canonical.size(), 3u);
  EXPECT_EQ(canonical[0]->header.height, 0u);
  EXPECT_EQ(canonical[2]->header.Hash(), b2.header.Hash());

  EXPECT_EQ((*chain_.BlockByHeight(1))->header.Hash(), b1.header.Hash());
  EXPECT_FALSE(chain_.BlockByHeight(9).ok());
  EXPECT_TRUE(chain_.BlockByHash(b1.header.Hash()).ok());
  EXPECT_FALSE(chain_.BlockByHash(crypto::Sha256::Hash("ghost")).ok());

  const Transaction* found = nullptr;
  uint64_t height = 0;
  EXPECT_TRUE(
      chain_.FindTransaction(b2.transactions[0].Id(), &found, &height));
  EXPECT_EQ(height, 2u);
  EXPECT_FALSE(
      chain_.FindTransaction(crypto::Sha256::Hash("none"), nullptr, nullptr));
}

// The canonical index (FindTransaction, BlockByHeight, CanonicalChain,
// TxIdsCanonicalSince) against a brute-force parent walk from head() over
// the test's own copies of the blocks, after every AddBlock of seeded fork
// trees. The trees include equal-height switches decided by the hash
// tie-break, deep reorgs onto branches forked at genesis, and one
// transaction carried on two branches at different heights.
TEST_F(BlockchainTest, CanonicalIndexAgreesWithParentWalkAcrossReorgs) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Blockchain chain(genesis_, &sealer_, contracts::SharedDataConflictKey);
    const std::string genesis_hex = genesis_.header.Hash().ToHex();
    std::map<std::string, Block> blocks{{genesis_hex, genesis_}};
    struct Offered {
      Transaction tx;
      std::string id;
    };
    std::vector<Offered> offered;
    std::map<std::string, std::set<uint64_t>> carried_at;  // id -> heights

    auto walk = [&](const std::string& tip_hex) {
      std::vector<const Block*> path;
      for (std::string cursor = tip_hex;;) {
        const Block& block = blocks.at(cursor);
        path.push_back(&block);
        if (block.header.height == 0) break;
        cursor = block.header.parent.ToHex();
      }
      return std::vector<const Block*>(path.rbegin(), path.rend());
    };
    auto ids_on = [](const std::vector<const Block*>& path) {
      std::map<std::string, std::pair<uint64_t, size_t>> where;
      for (const Block* block : path) {
        for (size_t i = 0; i < block->transactions.size(); ++i) {
          where[block->transactions[i].Id().ToHex()] = {block->header.height,
                                                        i};
        }
      }
      return where;
    };
    auto check = [&](const std::string& old_head_hex) {
      const std::vector<const Block*> expected =
          walk(chain.head().header.Hash().ToHex());
      const std::vector<const Block*>& canonical = chain.CanonicalChain();
      ASSERT_EQ(canonical.size(), expected.size());
      for (size_t h = 0; h < expected.size(); ++h) {
        EXPECT_EQ(canonical[h]->header.Hash(), expected[h]->header.Hash());
        Result<const Block*> by_height = chain.BlockByHeight(h);
        ASSERT_TRUE(by_height.ok());
        EXPECT_EQ(*by_height, canonical[h]);
      }
      EXPECT_FALSE(chain.BlockByHeight(expected.size()).ok());

      const auto where = ids_on(expected);
      for (const Offered& o : offered) {
        const Transaction* found = nullptr;
        uint64_t height = 0;
        const bool hit = chain.FindTransaction(o.tx.Id(), &found, &height);
        auto it = where.find(o.id);
        ASSERT_EQ(hit, it != where.end()) << o.id;
        if (!hit) continue;
        EXPECT_EQ(height, it->second.first);
        EXPECT_EQ(found, &canonical[height]->transactions[it->second.second]);
      }

      // The transactions of canonical blocks that old_head's ancestry lacks.
      const std::vector<const Block*> before = walk(old_head_hex);
      const std::set<const Block*> old_blocks(before.begin(), before.end());
      std::set<std::string> since;
      for (const Block* block : expected) {
        if (old_blocks.count(block) > 0) continue;
        for (const Transaction& tx : block->transactions) {
          since.insert(tx.Id().ToHex());
        }
      }
      EXPECT_EQ(chain.TxIdsCanonicalSince(
                    blocks.at(old_head_hex).header.Hash()),
                since);
    };

    size_t accepted = 0;
    int tie_switches = 0;
    int genesis_reorgs = 0;
    int replays_rejected = 0;
    uint64_t nonce = 0;
    std::string genesis_branch = genesis_hex;  // tip of a fork at genesis
    bool burst = false;  // growing genesis_branch past the head
    while (accepted < 210) {
      const Block& head = chain.head();
      const std::string head_hex = head.header.Hash().ToHex();
      std::string parent_hex;
      if (accepted % 70 == 69) burst = true;
      const uint64_t roll = rng.NextBelow(10);
      if (burst) {
        parent_hex = genesis_branch;
      } else if (roll < 5) {
        parent_hex = head_hex;
      } else if (roll < 7) {  // a sibling of the head: a tie-break
        parent_hex = head.header.height == 0 ? head_hex
                                             : head.header.parent.ToHex();
      } else if (roll < 8) {
        parent_hex = genesis_branch;
      } else {
        auto it = blocks.begin();
        std::advance(it, rng.NextIndex(blocks.size()));
        parent_hex = it->first;
      }
      const std::vector<const Block*> ancestry = walk(parent_hex);
      const auto in_ancestry = ids_on(ancestry);

      std::vector<Transaction> txs;
      std::set<std::string> chosen;
      const uint64_t count = rng.NextBelow(4);
      for (uint64_t i = 0; i < count; ++i) {
        if (!offered.empty() && rng.NextBool(0.5)) {
          const Offered& o = offered[rng.NextIndex(offered.size())];
          if (in_ancestry.count(o.id) == 0 && chosen.insert(o.id).second) {
            txs.push_back(o.tx);
          }
        } else {
          Transaction tx = MakeTx("tree", ++nonce);
          std::string id = tx.Id().ToHex();
          chosen.insert(id);
          txs.push_back(tx);
          offered.push_back(Offered{std::move(tx), std::move(id)});
        }
      }
      const Block& parent = blocks.at(parent_hex);
      const Micros stamp =
          parent.header.timestamp + 1 + static_cast<Micros>(rng.NextBelow(50));

      // Now and then, replay a transaction already in the ancestry: the
      // ancestry check must reject the block and leave the index alone.
      if (!in_ancestry.empty() && rng.NextBool(0.1)) {
        auto pick = in_ancestry.begin();
        std::advance(pick, rng.NextIndex(in_ancestry.size()));
        const auto [height, index] = pick->second;
        std::vector<Transaction> replay = txs;
        replay.push_back(ancestry[height]->transactions[index]);
        Status s = chain.AddBlock(MakeBlock(parent, replay, stamp));
        EXPECT_TRUE(s.IsAlreadyExists()) << s;
        ++replays_rejected;
        check(head_hex);
      }

      Block block = MakeBlock(parent, std::move(txs), stamp);
      const std::string hex = block.header.Hash().ToHex();
      if (blocks.count(hex) > 0) continue;  // identical block drawn again
      const uint64_t old_height = head.header.height;
      Status added = chain.AddBlock(block);
      ASSERT_TRUE(added.ok()) << added;
      ++accepted;
      for (const Transaction& tx : block.transactions) {
        carried_at[tx.Id().ToHex()].insert(block.header.height);
      }
      blocks.emplace(hex, std::move(block));
      if (parent_hex == genesis_branch) genesis_branch = hex;

      const std::string new_head_hex = chain.head().header.Hash().ToHex();
      if (new_head_hex != head_hex && chain.height() == old_height) {
        ++tie_switches;
      }
      const std::vector<const Block*> new_path = walk(new_head_hex);
      if (old_height >= 10 && new_path.size() > 1 &&
          new_path[1] != walk(head_hex)[1]) {
        ++genesis_reorgs;  // the new head forks from the old at genesis
      }
      if (burst && new_head_hex == genesis_branch) {
        burst = false;
        genesis_branch = genesis_hex;
      }
      check(head_hex);
      if (HasFatalFailure()) return;
    }

    EXPECT_GE(chain.block_count(), 211u);
    EXPECT_GE(tie_switches, 1);
    EXPECT_GE(genesis_reorgs, 1);
    EXPECT_GE(replays_rejected, 1);
    size_t two_heights = 0;
    for (const auto& [id, heights] : carried_at) {
      if (heights.size() >= 2) ++two_heights;
    }
    EXPECT_GE(two_heights, 1u);
  }
}

TEST_F(BlockchainTest, VerifyIntegrityPassesOnHonestChain) {
  Block b1 = MakeBlock(genesis_, {MakeTx("alice", 1)});
  ASSERT_TRUE(chain_.AddBlock(b1).ok());
  EXPECT_TRUE(chain_.VerifyIntegrity().ok());
}

TEST(PowSealerTest, SealsAndValidates) {
  PowSealer sealer(/*difficulty_bits=*/8);
  Block genesis = Blockchain::MakeGenesis(0);
  Blockchain chain(genesis, &sealer);

  Block block;
  block.header.height = 1;
  block.header.parent = genesis.header.Hash();
  block.header.timestamp = 1;
  block.header.merkle_root = block.ComputeMerkleRoot();
  ASSERT_TRUE(sealer.Seal(&block).ok());
  EXPECT_TRUE(MeetsDifficulty(block.header.Hash(), 8));
  EXPECT_TRUE(sealer.ValidateSeal(block.header).ok());
  EXPECT_TRUE(chain.AddBlock(block).ok());

  // A claimed-but-unmet difficulty fails.
  block.header.pow_nonce += 1;
  Status s = sealer.ValidateSeal(block.header);
  EXPECT_TRUE(s.IsCorruption()) << s;

  // Difficulty below the network minimum fails.
  BlockHeader weak = block.header;
  weak.difficulty = 4;
  EXPECT_TRUE(sealer.ValidateSeal(weak).IsInvalidArgument());
}

TEST(PowSealerTest, NonceExhaustionIsAnError) {
  // At 256 required zero bits no nonce can ever satisfy the target, so a
  // bounded search must come back with ResourceExhausted instead of
  // spinning through the 64-bit space forever.
  Block block;
  block.header.height = 1;
  block.header.timestamp = 1;
  block.header.merkle_root = block.ComputeMerkleRoot();

  PowSealer serial(/*difficulty_bits=*/256, /*pool=*/nullptr,
                   /*max_nonce=*/5000);
  Status s = serial.Seal(&block);
  EXPECT_TRUE(s.IsResourceExhausted()) << s;

  threading::ThreadPool pool(4);
  PowSealer parallel(/*difficulty_bits=*/256, &pool, /*max_nonce=*/5000);
  s = parallel.Seal(&block);
  EXPECT_TRUE(s.IsResourceExhausted()) << s;
}

TEST(PowSealerTest, BoundedSealStillFindsReachableNonces) {
  // The bound only fails the search when NO nonce within it works: an easy
  // difficulty whose first hit lies inside the bound still seals.
  PowSealer easy(/*difficulty_bits=*/4, /*pool=*/nullptr,
                 /*max_nonce=*/100000);
  Block block;
  block.header.height = 1;
  block.header.timestamp = 1;
  block.header.merkle_root = block.ComputeMerkleRoot();
  ASSERT_TRUE(easy.Seal(&block).ok());
  EXPECT_LE(block.header.pow_nonce, 100000u);
  EXPECT_TRUE(easy.ValidateSeal(block.header).ok());
}

TEST(PoaSealerTest, RoundRobinTurns) {
  auto k0 = std::make_shared<crypto::KeyPair>(crypto::KeyPair::FromSeed("a0"));
  auto k1 = std::make_shared<crypto::KeyPair>(crypto::KeyPair::FromSeed("a1"));
  std::vector<crypto::Address> authorities{k0->address(), k1->address()};
  PoaSealer sealer0(authorities, k0);
  PoaSealer sealer1(authorities, k1);

  Block block;
  block.header.height = 1;  // 1 % 2 == authority index 1
  block.header.merkle_root = block.ComputeMerkleRoot();
  EXPECT_TRUE(sealer0.Seal(&block).IsPermissionDenied());
  EXPECT_TRUE(sealer1.Seal(&block).ok());
  EXPECT_TRUE(sealer0.ValidateSeal(block.header).ok());  // anyone validates

  PoaSealer observer(authorities, nullptr);
  EXPECT_TRUE(observer.ValidateSeal(block.header).ok());
  EXPECT_TRUE(observer.Seal(&block).IsFailedPrecondition());
}

}  // namespace
}  // namespace medsync::chain
