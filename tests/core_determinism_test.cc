// Whole-system determinism: two scenarios built from the same seed and
// driven through the same operations must be bit-identical — chain head,
// contract fingerprints, local databases, and network statistics. This is
// the property every benchmark number and every replayed audit depends on.

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "medical/records.h"

namespace medsync::core {
namespace {

using relational::Value;

constexpr char kPD[] = "D13&D31";

void DriveWorkload(ClinicScenario& clinic) {
  // Generated ids start at 1000; pick concrete keys from the data itself.
  relational::Table d3 = *clinic.doctor().database().Snapshot("D3");
  relational::Key first_patient = d3.NthKey(0);
  relational::Key second_patient = d3.NthKey(1);
  relational::Table d2 = *clinic.researcher().database().Snapshot("D2");
  relational::Key first_med = d2.NthKey(0);

  ASSERT_TRUE(clinic.doctor()
                  .UpdateSharedAttribute(kPD, first_patient, medical::kDosage,
                                         Value::String("deterministic"))
                  .ok());
  ASSERT_TRUE(clinic.SettleAll().ok());
  ASSERT_TRUE(clinic.patient()
                  .UpdateSharedAttribute(kPD, second_patient,
                                         medical::kClinicalData,
                                         Value::String("same everywhere"))
                  .ok());
  ASSERT_TRUE(clinic.SettleAll().ok());
  ASSERT_TRUE(clinic.researcher()
                  .UpdateSourceAndPropagate(
                      "D2",
                      [&](relational::Database* db) {
                        return db->UpdateAttribute(
                            "D2", first_med, medical::kMechanismOfAction,
                            Value::String("replayed"));
                      })
                  .ok());
  ASSERT_TRUE(clinic.SettleAll().ok());
}

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalWorlds) {
  ScenarioOptions options;
  options.seed = 1234;
  options.record_count = 32;

  auto a = ClinicScenario::Create(options);
  auto b = ClinicScenario::Create(options);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  DriveWorkload(**a);
  DriveWorkload(**b);

  // Chain-level identity.
  EXPECT_EQ((*a)->node(0).blockchain().head().header.Hash(),
            (*b)->node(0).blockchain().head().header.Hash());
  EXPECT_EQ((*a)->node(0).host().StateFingerprint(),
            (*b)->node(0).host().StateFingerprint());

  // Local-database identity for every peer.
  auto compare_peer = [](Peer& pa, Peer& pb) {
    ASSERT_EQ(pa.database().TableNames(), pb.database().TableNames());
    for (const std::string& table : pa.database().TableNames()) {
      EXPECT_EQ(*pa.database().Snapshot(table), *pb.database().Snapshot(table))
          << table;
    }
  };
  compare_peer((*a)->doctor(), (*b)->doctor());
  compare_peer((*a)->patient(), (*b)->patient());
  compare_peer((*a)->researcher(), (*b)->researcher());

  // Even the network behaved identically (same latencies, same order).
  EXPECT_EQ((*a)->network().stats().sent, (*b)->network().stats().sent);
  EXPECT_EQ((*a)->network().stats().bytes, (*b)->network().stats().bytes);
  EXPECT_EQ((*a)->simulator().Now(), (*b)->simulator().Now());
}

TEST(DeterminismTest, ThreadedPoolsProduceByteIdenticalWorlds) {
  // The same seed driven through the same workload must yield bit-identical
  // chains and databases whether the scenario runs serially or on worker
  // pools of size 1, 2, or 8 — i.e. the parallel seal/validate/cascade
  // paths are all deterministic. PoW consensus exercises the parallel
  // nonce search on top of validation and cascade rederivation.
  auto build = [](size_t worker_threads) {
    ScenarioOptions options;
    options.seed = 977;
    options.record_count = 24;
    options.consensus = ConsensusMode::kPow;
    options.worker_threads = worker_threads;
    auto scenario = ClinicScenario::Create(options);
    EXPECT_TRUE(scenario.ok()) << scenario.status();
    DriveWorkload(**scenario);
    return std::move(*scenario);
  };

  auto baseline = build(/*worker_threads=*/0);  // serial reference
  for (size_t workers : {1ul, 2ul, 8ul}) {
    auto threaded = build(workers);
    SCOPED_TRACE(testing::Message() << workers << " workers");

    // Chain-level identity: same head block, same executed contract state.
    EXPECT_EQ(baseline->node(0).blockchain().head().header.Hash(),
              threaded->node(0).blockchain().head().header.Hash());
    EXPECT_EQ(baseline->node(0).host().StateFingerprint(),
              threaded->node(0).host().StateFingerprint());

    // Final databases, byte-identical for every peer and table.
    auto compare_peer = [](Peer& pa, Peer& pb) {
      ASSERT_EQ(pa.database().TableNames(), pb.database().TableNames());
      for (const std::string& table : pa.database().TableNames()) {
        EXPECT_EQ(*pa.database().Snapshot(table),
                  *pb.database().Snapshot(table))
            << table;
      }
    };
    compare_peer(baseline->doctor(), threaded->doctor());
    compare_peer(baseline->patient(), threaded->patient());
    compare_peer(baseline->researcher(), threaded->researcher());
    EXPECT_EQ(baseline->simulator().Now(), threaded->simulator().Now());

    // Every metric — counters, gauges, histograms, down to PoW nonce
    // accounting and per-step protocol timings — must also be
    // byte-identical: observability is part of the deterministic surface.
    EXPECT_EQ(baseline->MetricsSnapshot().Dump(),
              threaded->MetricsSnapshot().Dump());
    EXPECT_EQ(baseline->tracer().ToJson().Dump(),
              threaded->tracer().ToJson().Dump());
  }
}

TEST(DeterminismTest, IncrementalAndFullMaintenanceConverge) {
  // The delta-push path and the full-get path are two implementations of
  // the same cascade semantics: the same seed and workload must end in
  // byte-identical chains and databases under either maintenance mode,
  // across pool sizes. (Metrics are NOT compared across modes — the
  // modes legitimately differ in gets_executed/delta_pushes — but within
  // a mode they stay byte-identical across worker counts.)
  auto build = [](ViewMaintenance maintenance, size_t worker_threads) {
    ScenarioOptions options;
    options.seed = 977;
    options.record_count = 24;
    options.maintenance = maintenance;
    options.worker_threads = worker_threads;
    auto scenario = ClinicScenario::Create(options);
    EXPECT_TRUE(scenario.ok()) << scenario.status();
    DriveWorkload(**scenario);
    return std::move(*scenario);
  };

  auto compare_peer = [](Peer& pa, Peer& pb) {
    ASSERT_EQ(pa.database().TableNames(), pb.database().TableNames());
    for (const std::string& table : pa.database().TableNames()) {
      EXPECT_EQ(*pa.database().Snapshot(table), *pb.database().Snapshot(table))
          << table;
    }
  };

  auto incremental = build(ViewMaintenance::kIncremental, 0);
  auto full = build(ViewMaintenance::kFullGet, 0);
  EXPECT_EQ(incremental->node(0).blockchain().head().header.Hash(),
            full->node(0).blockchain().head().header.Hash());
  EXPECT_EQ(incremental->node(0).host().StateFingerprint(),
            full->node(0).host().StateFingerprint());
  compare_peer(incremental->doctor(), full->doctor());
  compare_peer(incremental->patient(), full->patient());
  compare_peer(incremental->researcher(), full->researcher());
  EXPECT_EQ(incremental->simulator().Now(), full->simulator().Now());

  // Pool-size sweep within the incremental mode: counters and histograms
  // (including sync.delta_pushes / sync.full_fallbacks) must be
  // byte-identical across worker counts.
  for (size_t workers : {2ul, 8ul}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    auto threaded = build(ViewMaintenance::kIncremental, workers);
    EXPECT_EQ(incremental->node(0).blockchain().head().header.Hash(),
              threaded->node(0).blockchain().head().header.Hash());
    compare_peer(incremental->doctor(), threaded->doctor());
    compare_peer(incremental->patient(), threaded->patient());
    compare_peer(incremental->researcher(), threaded->researcher());
    EXPECT_EQ(incremental->MetricsSnapshot().Dump(),
              threaded->MetricsSnapshot().Dump());
  }
}

TEST(DeterminismTest, FaultToleranceLayerStaysDeterministicAcrossPoolSizes) {
  // The reliability machinery — drop lottery, retransmit backoff jitter,
  // dedup, periodic catch-up — must be part of the deterministic surface
  // too: the same seed at 25% loss yields byte-identical databases AND
  // byte-identical metrics (every retry and dup-drop included) whether the
  // scenario runs serially or on pools of 2 or 8 workers.
  auto build = [](size_t worker_threads) {
    ScenarioOptions options;
    options.seed = 431;
    options.record_count = 24;
    options.drop_probability = 0.25;
    options.worker_threads = worker_threads;
    auto scenario = ClinicScenario::Create(options);
    EXPECT_TRUE(scenario.ok()) << scenario.status();
    DriveWorkload(**scenario);
    return std::move(*scenario);
  };

  auto baseline = build(/*worker_threads=*/0);
  // The loss was real and the channel worked through it.
  Json counters = baseline->MetricsSnapshot().At("counters");
  EXPECT_GT(counters.At("net.retries").AsInt(), 0);
  EXPECT_GT(baseline->network().stats().dropped, 0u);

  auto compare_peer = [](Peer& pa, Peer& pb) {
    ASSERT_EQ(pa.database().TableNames(), pb.database().TableNames());
    for (const std::string& table : pa.database().TableNames()) {
      EXPECT_EQ(*pa.database().Snapshot(table), *pb.database().Snapshot(table))
          << table;
    }
  };
  for (size_t workers : {2ul, 8ul}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    auto threaded = build(workers);
    EXPECT_EQ(baseline->node(0).blockchain().head().header.Hash(),
              threaded->node(0).blockchain().head().header.Hash());
    EXPECT_EQ(baseline->node(0).host().StateFingerprint(),
              threaded->node(0).host().StateFingerprint());
    compare_peer(baseline->doctor(), threaded->doctor());
    compare_peer(baseline->patient(), threaded->patient());
    compare_peer(baseline->researcher(), threaded->researcher());
    EXPECT_EQ(baseline->simulator().Now(), threaded->simulator().Now());
    EXPECT_EQ(baseline->MetricsSnapshot().Dump(),
              threaded->MetricsSnapshot().Dump());
    EXPECT_EQ(baseline->tracer().ToJson().Dump(),
              threaded->tracer().ToJson().Dump());
  }
}

TEST(DeterminismTest, DifferentSeedsDivergeInNetworkTiming) {
  ScenarioOptions options;
  options.seed = 1;
  auto a = ClinicScenario::Create(options);
  options.seed = 2;
  auto b = ClinicScenario::Create(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Different seeds change message jitter, but the PROTOCOL result — the
  // contract state — converges to the same content-independent facts.
  Json ea = *(*a)->Entry(kPD);
  Json eb = *(*b)->Entry(kPD);
  EXPECT_EQ(*ea.GetInt("version"), *eb.GetInt("version"));
  EXPECT_EQ(*ea.GetString("content_digest"), *eb.GetString("content_digest"));
}

}  // namespace
}  // namespace medsync::core
