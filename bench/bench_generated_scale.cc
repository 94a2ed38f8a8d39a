// Peers-vs-latency / cascade-throughput curve over seeded generated
// hospital networks (seed 77 at 16/32/64/128/256 peers). Each iteration has
// every provider push one source update through the lens chain of each of
// its shared tables, then settles the whole network; manual time records
// the SIMULATED seconds the fan-out took, so items/s is committed
// cascades per simulated second. The BX-law oracle is off here — the
// curve measures the sharing protocol, not the checker. Numbers live in
// EXPERIMENTS.md ("Generated-network scaling").

#include <benchmark/benchmark.h>

#include "common/strings.h"
#include "core/scenario_gen.h"
#include "relational/database.h"

namespace {

using namespace medsync;
using relational::Value;

void BM_GeneratedNetworkScale(benchmark::State& state) {
  core::GenOptions options;
  options.seed = 77;
  options.peers = static_cast<size_t>(state.range(0));
  options.check_bx_laws = false;
  auto created = core::GeneratedScenario::Create(options);
  if (!created.ok()) std::abort();
  core::GeneratedScenario& world = **created;
  const core::NetworkSpec& spec = world.spec();

  uint64_t round = 0;
  for (auto _ : state) {
    const Micros start = world.simulator().Now();
    // One source update per shared table, all racing in the same window —
    // every lens chain in the network re-derives concurrently.
    for (size_t t = 0; t < spec.tables.size(); ++t) {
      const core::SharedTableSpec& table = spec.tables[t];
      const core::PeerSpec& provider = spec.peers[table.provider];
      const std::string token = StrCat("bench-", round, "-", t);
      Status s = world.peer(table.provider)
                     ->UpdateSourceAndPropagate(
                         provider.source_table,
                         [&](relational::Database* db) {
                           return db->UpdateAttribute(
                               provider.source_table,
                               {Value::Int(table.key_lo)},
                               table.raw_attributes[0],
                               Value::String(token));
                         });
      if (!s.ok()) std::abort();
    }
    ++round;
    if (!world.SettleAll().ok()) std::abort();
    state.SetIterationTime(
        static_cast<double>(world.simulator().Now() - start) /
        kMicrosPerSecond);
  }
  // items/s = committed cascades per simulated second (aggregate).
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spec.tables.size()));
  state.counters["peers"] = static_cast<double>(spec.peers.size());
  state.counters["tables"] = static_cast<double>(spec.tables.size());
  state.counters["chain_height"] =
      static_cast<double>(world.node(0).blockchain().height());
}
BENCHMARK(BM_GeneratedNetworkScale)
    ->UseManualTime()
    ->Iterations(3)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256);

}  // namespace
