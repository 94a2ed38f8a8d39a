// Chain substrate costs: hashing, Merkle commitment/proofs, PoW sealing by
// difficulty, PoA sealing, and full block validation. The PoW sweep shows
// the expected 2^bits growth; PoA sealing is constant — the quantitative
// backing for the paper's private-chain recommendation (Section IV-3).
//
// The *_Threaded variants run the same work on a worker pool (the pool size
// is the benchmark argument) and report `speedup_vs_serial`, measured
// against an in-process serial baseline on identical inputs. The parallel
// paths are deterministic, so the outputs being compared are identical.

#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>

#include "chain/blockchain.h"
#include "chain/sealer.h"
#include "common/strings.h"
#include "common/threading/thread_pool.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "metrics_counters.h"

namespace {

using namespace medsync;
using namespace medsync::chain;

/// Wall-clock seconds of `fn()`, for in-benchmark serial baselines.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Transaction MakeTx(uint64_t nonce) {
  static const crypto::KeyPair* key =
      new crypto::KeyPair(crypto::KeyPair::FromSeed("bench-sender"));
  Transaction tx;
  tx.from = key->address();
  tx.to = crypto::KeyPair::FromSeed("bench-target").address();
  tx.nonce = nonce;
  tx.method = "request_update";
  Json params = Json::MakeObject();
  params.Set("table_id", StrCat("T", nonce));
  params.Set("digest", std::string(64, 'a'));
  tx.params = std::move(params);
  tx.Sign(*key);
  return tx;
}

void BM_Sha256(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Range(64, 1 << 20);

void BM_MerkleRoot(benchmark::State& state) {
  std::vector<crypto::Hash256> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(crypto::Sha256::Hash(StrCat("leaf", i)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::MerkleTree::ComputeRoot(leaves));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleRoot)->Range(1, 4096);

void BM_MerkleProofVerify(benchmark::State& state) {
  std::vector<crypto::Hash256> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(crypto::Sha256::Hash(StrCat("leaf", i)));
  }
  crypto::MerkleTree tree(leaves);
  crypto::MerkleProof proof = tree.BuildProof(leaves.size() / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::MerkleTree::VerifyProof(
        leaves[leaves.size() / 2], proof, tree.root()));
  }
}
BENCHMARK(BM_MerkleProofVerify)->Range(2, 4096);

void BM_TransactionSignVerify(benchmark::State& state) {
  Transaction tx = MakeTx(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.VerifySignature());
  }
}
BENCHMARK(BM_TransactionSignVerify);

void BM_PowSeal(benchmark::State& state) {
  // Expected cost doubles per difficulty bit; this is why a 12 s public-
  // chain block interval exists at all.
  metrics::MetricsRegistry registry;
  PowSealer sealer(static_cast<uint32_t>(state.range(0)));
  sealer.set_metrics(&registry);
  uint64_t salt = 0;
  for (auto _ : state) {
    Block block;
    block.header.height = 1;
    block.header.timestamp = static_cast<Micros>(++salt);
    block.header.merkle_root = crypto::Sha256::Hash(StrCat("salt", salt));
    benchmark::DoNotOptimize(sealer.Seal(&block));
  }
  state.counters["difficulty_bits"] = static_cast<double>(state.range(0));
  bench::ExportMetrics(state, registry);
}
BENCHMARK(BM_PowSeal)->DenseRange(4, 16, 4);

void BM_PoaSeal(benchmark::State& state) {
  auto key = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("authority"));
  PoaSealer sealer({key->address()}, key);
  uint64_t salt = 0;
  for (auto _ : state) {
    Block block;
    block.header.height = 1;
    block.header.timestamp = static_cast<Micros>(++salt);
    block.header.merkle_root = crypto::Sha256::Hash(StrCat("salt", salt));
    benchmark::DoNotOptimize(sealer.Seal(&block));
  }
}
BENCHMARK(BM_PoaSeal);

void BM_BlockValidate(benchmark::State& state) {
  auto key = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("authority"));
  auto sealer = PoaSealer({key->address()}, key);
  Block genesis = Blockchain::MakeGenesis(0);
  metrics::MetricsRegistry registry;
  Blockchain chain(genesis, &sealer);
  chain.set_metrics(&registry);

  Block block;
  block.header.height = 1;
  block.header.parent = genesis.header.Hash();
  block.header.timestamp = 1;
  for (int64_t i = 0; i < state.range(0); ++i) {
    block.transactions.push_back(MakeTx(static_cast<uint64_t>(i)));
  }
  block.header.merkle_root = block.ComputeMerkleRoot();
  IgnoreStatusForTest(sealer.Seal(&block));

  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.ValidateStructure(block));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  bench::ExportMetrics(state, registry);
}
BENCHMARK(BM_BlockValidate)->Range(1, 256);

void BM_ChainAppendAndIntegrity(benchmark::State& state) {
  auto key = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("authority"));
  for (auto _ : state) {
    state.PauseTiming();
    auto sealer = PoaSealer({key->address()}, key);
    Block genesis = Blockchain::MakeGenesis(0);
    Blockchain chain(genesis, &sealer);
    state.ResumeTiming();
    const Block* parent = &chain.genesis();
    for (int64_t h = 1; h <= state.range(0); ++h) {
      Block block;
      block.header.height = static_cast<uint64_t>(h);
      block.header.parent = parent->header.Hash();
      block.header.timestamp = h;
      block.transactions.push_back(MakeTx(static_cast<uint64_t>(h)));
      block.header.merkle_root = block.ComputeMerkleRoot();
      IgnoreStatusForTest(sealer.Seal(&block));
      benchmark::DoNotOptimize(chain.AddBlock(std::move(block)));
      parent = &chain.head();
    }
    benchmark::DoNotOptimize(chain.VerifyIntegrity());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChainAppendAndIntegrity)->Range(8, 128);

// ---------------------------------------------------------------------------
// Canonical index. FindTransaction is one index lookup, so its cost should
// stay flat as the chain grows; a reorg's cost grows with the number of
// blocks it switches.

PoaSealer AuthoritySealer() {
  auto key = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("authority"));
  return PoaSealer({key->address()}, key);
}

/// Sealed blocks extending `from`, `txs_per_block` fresh transactions each;
/// `stamp_step` spaces the timestamps so two branches built from the same
/// parent differ.
std::vector<Block> BuildBranch(const PoaSealer& sealer, const Block& from,
                               size_t count, size_t txs_per_block,
                               uint64_t* nonce, Micros stamp_step) {
  std::vector<Block> branch;
  const Block* parent = &from;
  for (size_t b = 0; b < count; ++b) {
    Block block;
    block.header.height = parent->header.height + 1;
    block.header.parent = parent->header.Hash();
    block.header.timestamp = parent->header.timestamp + stamp_step;
    for (size_t t = 0; t < txs_per_block; ++t) {
      block.transactions.push_back(MakeTx(++*nonce));
    }
    block.header.merkle_root = block.ComputeMerkleRoot();
    IgnoreStatusForTest(sealer.Seal(&block));
    branch.push_back(std::move(block));
    parent = &branch.back();
  }
  return branch;
}

/// A chain holding `tx_count` transactions in blocks of 64, built once per
/// size and kept for the process's lifetime.
struct IndexedChain {
  PoaSealer sealer = AuthoritySealer();
  Blockchain chain{Blockchain::MakeGenesis(0), &sealer};
  std::vector<crypto::Hash256> ids;
};

const IndexedChain& ChainWithTxs(int64_t tx_count) {
  static auto* cache = new std::map<int64_t, std::unique_ptr<IndexedChain>>();
  std::unique_ptr<IndexedChain>& entry = (*cache)[tx_count];
  if (entry == nullptr) {
    entry = std::make_unique<IndexedChain>();
    uint64_t nonce = 0;
    const size_t per_block = std::min<size_t>(64, tx_count);
    for (Block& block :
         BuildBranch(entry->sealer, entry->chain.genesis(),
                     static_cast<size_t>(tx_count) / per_block, per_block,
                     &nonce, 1)) {
      for (const Transaction& tx : block.transactions) {
        entry->ids.push_back(tx.Id());
      }
      IgnoreStatusForTest(entry->chain.AddBlock(std::move(block)));
    }
  }
  return *entry;
}

/// Args: transactions on the chain, and whether the looked-up ids are on
/// it (1, cycling through all of them) or not (0: a freshly gossiped tx).
void BM_FindTransaction(benchmark::State& state) {
  const IndexedChain& fixture = ChainWithTxs(state.range(0));
  std::vector<crypto::Hash256> probes = fixture.ids;
  if (state.range(1) == 0) {
    probes.clear();
    for (int i = 0; i < 64; ++i) {
      probes.push_back(crypto::Sha256::Hash(StrCat("absent", i)));
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    bool found = fixture.chain.FindTransaction(probes[next], nullptr, nullptr);
    benchmark::DoNotOptimize(found);
    if (++next == probes.size()) next = 0;
  }
  state.counters["chain_txs"] = static_cast<double>(fixture.ids.size());
}
BENCHMARK(BM_FindTransaction)
    ->ArgsProduct({benchmark::CreateRange(64, 16384, 4), {1, 0}})
    ->ArgNames({"txs", "hit"});

/// Arg: reorg depth. Times the one AddBlock that makes a branch forked at
/// genesis the head, dropping `depth` blocks and adding `depth + 1`, four
/// transactions each. The chain is rebuilt untimed before every iteration.
void BM_ReorgSwitchHead(benchmark::State& state) {
  const auto depth = static_cast<size_t>(state.range(0));
  const PoaSealer sealer = AuthoritySealer();
  const Block genesis = Blockchain::MakeGenesis(0);
  uint64_t nonce = 0;
  const std::vector<Block> winner =
      BuildBranch(sealer, genesis, depth + 1, 4, &nonce, 2);
  // The losing branch's tip must win the tie at `depth`, so the timed block
  // is the one that switches the head.
  std::vector<Block> loser;
  for (Micros step = 3;; ++step) {
    loser = BuildBranch(sealer, genesis, depth, 4, &nonce, step);
    if (loser.back().header.Hash().ToHex() <
        winner[depth - 1].header.Hash().ToHex()) {
      break;
    }
  }
  for (auto _ : state) {
    state.PauseTiming();
    Blockchain chain(genesis, &sealer);
    for (const Block& block : loser) IgnoreStatusForTest(chain.AddBlock(block));
    for (size_t i = 0; i < depth; ++i) {
      IgnoreStatusForTest(chain.AddBlock(winner[i]));
    }
    Block last = winner[depth];
    state.ResumeTiming();
    benchmark::DoNotOptimize(chain.AddBlock(std::move(last)));
  }
  state.counters["reorg_depth"] = static_cast<double>(depth);
}
BENCHMARK(BM_ReorgSwitchHead)->Arg(1)->Arg(16)->Arg(256)->Iterations(16);

// ---------------------------------------------------------------------------
// Threaded variants. Argument = worker-pool size; `speedup_vs_serial` is the
// serial wall time divided by the threaded wall time on identical inputs.

void BM_MerkleRoot_Threaded(benchmark::State& state) {
  const auto leaf_count = static_cast<size_t>(state.range(0));
  threading::ThreadPool pool(static_cast<size_t>(state.range(1)));
  std::vector<crypto::Hash256> leaves;
  leaves.reserve(leaf_count);
  for (size_t i = 0; i < leaf_count; ++i) {
    leaves.push_back(crypto::Sha256::Hash(StrCat("leaf", i)));
  }
  constexpr int kBaselineReps = 50;
  double serial_seconds = TimeSeconds([&] {
    for (int rep = 0; rep < kBaselineReps; ++rep) {
      benchmark::DoNotOptimize(crypto::MerkleTree::ComputeRoot(leaves));
    }
  }) / kBaselineReps;
  double threaded_seconds = 0;
  for (auto _ : state) {
    threaded_seconds += TimeSeconds([&] {
      benchmark::DoNotOptimize(crypto::MerkleTree::ComputeRoot(leaves, &pool));
    });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["pool_size"] = static_cast<double>(state.range(1));
  state.counters["speedup_vs_serial"] =
      serial_seconds / (threaded_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MerkleRoot_Threaded)
    ->ArgsProduct({{1024, 16384}, {1, 2, 4, 8}});

void BM_PowSeal_Threaded(benchmark::State& state) {
  // Fixed difficulty; the parallel search claims nonce chunks in order and
  // returns the same (lowest) nonce the serial scan finds, so both runs do
  // comparable work. A batch of salts averages over nonce-search luck.
  constexpr uint32_t kBits = 12;
  constexpr int kSalts = 8;
  threading::ThreadPool pool(static_cast<size_t>(state.range(0)));
  PowSealer serial(kBits);
  PowSealer threaded(kBits, &pool);
  auto make_block = [](int salt) {
    Block block;
    block.header.height = 1;
    block.header.timestamp = static_cast<Micros>(salt + 1);
    block.header.merkle_root = crypto::Sha256::Hash(StrCat("tsalt", salt));
    return block;
  };
  double serial_seconds = TimeSeconds([&] {
    for (int s = 0; s < kSalts; ++s) {
      Block block = make_block(s);
      benchmark::DoNotOptimize(serial.Seal(&block));
    }
  });
  double threaded_seconds = 0;
  for (auto _ : state) {
    threaded_seconds += TimeSeconds([&] {
      for (int s = 0; s < kSalts; ++s) {
        Block block = make_block(s);
        benchmark::DoNotOptimize(threaded.Seal(&block));
      }
    });
  }
  state.counters["pool_size"] = static_cast<double>(state.range(0));
  state.counters["speedup_vs_serial"] =
      serial_seconds / (threaded_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_PowSeal_Threaded)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_BlockValidate_Threaded(benchmark::State& state) {
  const auto tx_count = state.range(0);
  threading::ThreadPool pool(static_cast<size_t>(state.range(1)));
  auto key = std::make_shared<crypto::KeyPair>(
      crypto::KeyPair::FromSeed("authority"));
  auto sealer = PoaSealer({key->address()}, key);
  Block genesis = Blockchain::MakeGenesis(0);
  Blockchain serial_chain(genesis, &sealer);
  Blockchain threaded_chain(genesis, &sealer, nullptr, &pool);

  Block block;
  block.header.height = 1;
  block.header.parent = genesis.header.Hash();
  block.header.timestamp = 1;
  for (int64_t i = 0; i < tx_count; ++i) {
    block.transactions.push_back(MakeTx(static_cast<uint64_t>(i)));
  }
  block.header.merkle_root = block.ComputeMerkleRoot();
  IgnoreStatusForTest(sealer.Seal(&block));

  constexpr int kBaselineReps = 20;
  double serial_seconds = TimeSeconds([&] {
    for (int rep = 0; rep < kBaselineReps; ++rep) {
      benchmark::DoNotOptimize(serial_chain.ValidateStructure(block));
    }
  }) / kBaselineReps;
  double threaded_seconds = 0;
  for (auto _ : state) {
    threaded_seconds += TimeSeconds([&] {
      benchmark::DoNotOptimize(threaded_chain.ValidateStructure(block));
    });
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["pool_size"] = static_cast<double>(state.range(1));
  state.counters["speedup_vs_serial"] =
      serial_seconds / (threaded_seconds / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BlockValidate_Threaded)
    ->ArgsProduct({{16, 64, 256}, {1, 2, 4, 8}});

}  // namespace
