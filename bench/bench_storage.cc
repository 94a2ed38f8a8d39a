// Local-database substrate costs (the per-peer storage of Fig. 2): WAL
// append latency, logged mutations, table replacement (what a view refresh
// costs), checkpointing, and crash recovery as a function of WAL length.

#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "common/strings.h"
#include "medical/generator.h"
#include "medical/records.h"
#include "relational/aggregate.h"
#include "relational/database.h"
#include "relational/query.h"

namespace {

using namespace medsync;
using namespace medsync::relational;

namespace fs = std::filesystem;

std::string FreshDir() {
  static int counter = 0;
  fs::path dir = fs::temp_directory_path() /
                 StrCat("medsync_bench_", ::getpid(), "_", counter++);
  fs::create_directories(dir);
  return dir.string();
}

Row MakeRow(int64_t id) {
  return Row{Value::Int(id), Value::String(StrCat("value-", id))};
}

Schema SmallSchema() {
  return *Schema::Create(
      {{"id", DataType::kInt, false}, {"v", DataType::kString, true}},
      {"id"});
}

void BM_WalAppend(benchmark::State& state) {
  std::string dir = FreshDir();
  std::vector<WalRecord> recovered;
  Wal wal = *Wal::Open(dir + "/wal.log", &recovered);
  Json payload = Json::MakeObject();
  payload.Set("op", "insert");
  payload.Set("row", std::string(static_cast<size_t>(state.range(0)), 'x'));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  fs::remove_all(dir);
}
BENCHMARK(BM_WalAppend)->Range(64, 8192);

void BM_DurableInsert(benchmark::State& state) {
  std::string dir = FreshDir();
  Database db = *Database::Open(dir);
  IgnoreStatusForTest(db.CreateTable("t", SmallSchema()));
  int64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Insert("t", MakeRow(id++)));
  }
  state.SetItemsProcessed(state.iterations());
  fs::remove_all(dir);
}
BENCHMARK(BM_DurableInsert);

void BM_InMemoryInsert(benchmark::State& state) {
  Database db;
  IgnoreStatusForTest(db.CreateTable("t", SmallSchema()));
  int64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Insert("t", MakeRow(id++)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InMemoryInsert);

void BM_ReplaceTable(benchmark::State& state) {
  // What applying a fetched shared view costs, by view size.
  Database db;
  Table records = medical::GenerateFullRecords(
      {.seed = 1, .record_count = static_cast<size_t>(state.range(0))});
  IgnoreStatusForTest(db.CreateTable("view", records.schema()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.ReplaceTable("view", records));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReplaceTable)->Range(8, 4096);

void BM_TransactionCommit(benchmark::State& state) {
  Database db;
  IgnoreStatusForTest(db.CreateTable("t", SmallSchema()));
  int64_t id = 0;
  for (auto _ : state) {
    Database::Transaction txn = db.Begin();
    for (int64_t i = 0; i < state.range(0); ++i) {
      txn.Insert("t", MakeRow(id++));
    }
    benchmark::DoNotOptimize(db.Commit(std::move(txn)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TransactionCommit)->Range(1, 256);

void BM_Recovery(benchmark::State& state) {
  // Reopen cost after `range` logged mutations with no checkpoint.
  std::string dir = FreshDir();
  {
    Database db = *Database::Open(dir);
    IgnoreStatusForTest(db.CreateTable("t", SmallSchema()));
    for (int64_t i = 0; i < state.range(0); ++i) {
      IgnoreStatusForTest(db.Insert("t", MakeRow(i)));
    }
  }
  for (auto _ : state) {
    Result<Database> db = Database::Open(dir);
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  fs::remove_all(dir);
}
BENCHMARK(BM_Recovery)->Range(16, 4096);

void BM_CheckpointThenRecover(benchmark::State& state) {
  // Same data volume, but checkpointed: recovery reads the snapshot and an
  // empty WAL. Compare with BM_Recovery to see the WAL-replay tax.
  std::string dir = FreshDir();
  {
    Database db = *Database::Open(dir);
    IgnoreStatusForTest(db.CreateTable("t", SmallSchema()));
    for (int64_t i = 0; i < state.range(0); ++i) {
      IgnoreStatusForTest(db.Insert("t", MakeRow(i)));
    }
    IgnoreStatusForTest(db.Checkpoint());
  }
  for (auto _ : state) {
    Result<Database> db = Database::Open(dir);
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  fs::remove_all(dir);
}
BENCHMARK(BM_CheckpointThenRecover)->Range(16, 4096);

void BM_SelectFullScan(benchmark::State& state) {
  Table records = medical::GenerateFullRecords(
      {.seed = 4, .record_count = static_cast<size_t>(state.range(0))});
  auto predicate = Predicate::Compare(medical::kAddress, CompareOp::kEq,
                                      Value::String("Osaka"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Select(records, predicate));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectFullScan)->Range(64, 16384);

// ---------------------------------------------------------------------------
// Columnar chunk engine at million-row scale (DESIGN.md section 15). These
// are the EXPERIMENTS.md "storage engine" rows: bulk load + streamed
// checkpoint, recovery, the merge scan, and the vectorized select speedup.
// ---------------------------------------------------------------------------

long ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtol(line.c_str() + std::strlen(field) + 1, nullptr, 10);
    }
  }
  return -1;
}

Row WideRow(int64_t i) {
  // 16 distinct ward strings: exercises the chunk dictionary encoding.
  return Row{Value::Int(i), Value::String(StrCat("ward-", i % 16)),
             Value::Int(i * 7)};
}

Schema WideSchema() {
  return *Schema::Create({{"id", DataType::kInt, false},
                          {"ward", DataType::kString, true},
                          {"score", DataType::kInt, true}},
                         {"id"});
}

void BM_ChunkedBulkLoadAndCheckpoint(benchmark::State& state) {
  // End-to-end bulk load: logged inserts with sync_every_append off, one
  // SealTable, one streamed (format-3) checkpoint. Items/s is rows loaded.
  const int64_t rows = state.range(0);
  for (auto _ : state) {
    std::string dir = FreshDir();
    {
      Database::OpenOptions bulk;
      bulk.sync_every_append = false;
      Database db = *Database::Open(dir, bulk);
      IgnoreStatusForTest(db.CreateTable("t", WideSchema()));
      for (int64_t i = 0; i < rows; ++i) {
        IgnoreStatusForTest(db.Insert("t", WideRow(i)));
      }
      IgnoreStatusForTest(db.SealTable("t"));
      IgnoreStatusForTest(db.Checkpoint());
    }
    fs::remove_all(dir);
  }
  state.counters["VmHWM_mb"] =
      static_cast<double>(ProcStatusKb("VmHWM")) / 1024.0;
  state.counters["VmRSS_mb"] =
      static_cast<double>(ProcStatusKb("VmRSS")) / 1024.0;
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ChunkedBulkLoadAndCheckpoint)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_ChunkedRecover(benchmark::State& state) {
  // Open() against a streamed checkpoint: manifest + per-chunk files.
  const int64_t rows = state.range(0);
  std::string dir = FreshDir();
  {
    Database::OpenOptions bulk;
    bulk.sync_every_append = false;
    Database db = *Database::Open(dir, bulk);
    IgnoreStatusForTest(db.CreateTable("t", WideSchema()));
    for (int64_t i = 0; i < rows; ++i) {
      IgnoreStatusForTest(db.Insert("t", WideRow(i)));
    }
    IgnoreStatusForTest(db.SealTable("t"));
    IgnoreStatusForTest(db.Checkpoint());
  }
  for (auto _ : state) {
    Result<Database> db = Database::Open(dir);
    benchmark::DoNotOptimize(db);
  }
  state.counters["VmHWM_mb"] =
      static_cast<double>(ProcStatusKb("VmHWM")) / 1024.0;
  state.SetItemsProcessed(state.iterations() * rows);
  fs::remove_all(dir);
}
BENCHMARK(BM_ChunkedRecover)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

void BM_ChunkedMergeScan(benchmark::State& state) {
  // Full table.scan() over sealed history + a live head: the merge
  // iterator everyone outside src/relational/ must use (MS008).
  const int64_t rows = state.range(0);
  Table table(WideSchema());
  for (int64_t i = 0; i < rows; ++i) {
    IgnoreStatusForTest(table.Insert(WideRow(i)));
  }
  for (auto _ : state) {
    int64_t sum = 0;
    for (const auto& [key, row] : table.scan()) sum += row[2].AsInt();
    benchmark::DoNotOptimize(sum);
  }
  state.counters["VmRSS_mb"] =
      static_cast<double>(ProcStatusKb("VmRSS")) / 1024.0;
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ChunkedMergeScan)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond);

void BM_SelectChunkedVsHeadOnly(benchmark::State& state) {
  // The vectorized-select payoff: the same predicate over the same rows,
  // either sealed into columnar chunks (dictionary-coded string column,
  // per-column bitmap path in query.cc) or held row-wise in the head.
  // range(1) selects the layout so the JSON carries both series.
  const int64_t rows = state.range(0);
  const bool sealed = state.range(1) == 1;
  Table table(WideSchema());
  if (!sealed) table.set_seal_threshold(1u << 30);
  for (int64_t i = 0; i < rows; ++i) {
    IgnoreStatusForTest(table.Insert(WideRow(i)));
  }
  if (sealed) table.Seal();
  auto predicate =
      Predicate::Compare("ward", CompareOp::kEq, Value::String("ward-3"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Select(table, predicate));
  }
  state.SetLabel(sealed ? "chunked" : "head_only");
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_SelectChunkedVsHeadOnly)
    ->ArgsProduct({{1'000'000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_GroupByCount(benchmark::State& state) {
  Table records = medical::GenerateFullRecords(
      {.seed = 4, .record_count = static_cast<size_t>(state.range(0))});
  std::vector<AggregateSpec> specs{
      {AggregateFn::kCount, "", "patients"},
      {AggregateFn::kMin, medical::kPatientId, "first"},
      {AggregateFn::kMax, medical::kPatientId, "last"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GroupBy(records, {medical::kAddress}, specs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByCount)->Range(64, 16384);

}  // namespace
