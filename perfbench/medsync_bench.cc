// medsync_bench: runs one closed-loop workload over medsync's public
// entry points for a wall-clock budget and prints one JSON object
// {"correct","attempted","failed","metrics","detail"} on stdout.
//
//   medsync_bench --workload <rounds32|bigview4k|soak16|loopback4>
//                 --seed <n> --seconds <s> --trace <0|1> [--tiny] [--tamper]
//
// A run is a sequence of episodes. Each episode builds a fresh world
// (timed as set-up), performs a fixed number of operations, one at a time,
// each issued only after the previous one settled (a closed loop with one
// client), and then checks the workload's correctness oracles. Per-op cost
// grows with chain height inside an episode, so an episode's op count is
// fixed and only whole episodes are measured; the run repeats episodes
// until --seconds have passed. Between episodes it times a fixed reference
// kernel and reports every time scaled to a reference host speed (see
// RefKernel), so that other tenants' load on a shared host does not show.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced episodes on the same inputs: spans recorded around the
// benchmark's own calls into each layer, forwarding endpoints/schedulers that
// time message handlers and timers, the registry's counters, and probes of
// single layers on the state the first traced episode produced.
// --tiny shrinks every workload for self-tests; --tamper corrupts one
// peer's local view before the oracles run, which must fail the run;
// --soak-reference checks soak16's event-by-event replay against
// core::RunGeneratedSoak.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bx/lens.h"
#include "chain/transaction.h"
#include "common/json.h"
#include "common/random.h"
#include "common/strings.h"
#include "contracts/metadata_contract.h"
#include "core/daemon.h"
#include "core/scenario.h"
#include "core/scenario_gen.h"
#include "core/workload.h"
#include "crypto/sha256.h"
#include "medical/records.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket_transport.h"
#include "relational/database.h"
#include "relational/delta.h"
#include "relational/row.h"
#include "relational/wal.h"

namespace {

using namespace medsync;
namespace fs = std::filesystem;
using relational::Value;

// ---------------------------------------------------------------------------
// Clocks and spans
// ---------------------------------------------------------------------------

double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Wall and process CPU time of one interval, in ms.
struct Interval {
  double wall_ms = 0;
  double cpu_ms = 0;
};

/// Reads both clocks at construction; Elapsed() is the interval since.
class Stopwatch {
 public:
  Interval Elapsed() const { return {WallMs() - wall0_, CpuMs() - cpu0_}; }

 private:
  double wall0_ = WallMs();
  double cpu0_ = CpuMs();
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Nearest-rank percentile (q in (0, 1]).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

/// {"value": value, "unit": unit}, the shape of every reported metric.
Json Metric(double value, const char* unit) {
  Json m = Json::MakeObject();
  m.Set("value", value);
  m.Set("unit", unit);
  return m;
}

/// Named wall-time spans (ms), kept in memory and read at the end of the
/// run. Recording is off in untraced episodes. `depth` marks code running
/// inside a handler or timer span, so nested spans are not counted twice
/// when self time is derived.
struct Spans {
  bool enabled = false;
  int depth = 0;
  std::map<std::string, std::vector<double>> by_name;

  std::map<std::string, double> totals;

  void Add(const std::string& name, double ms) {
    if (!enabled) return;
    by_name[name].push_back(ms);
    totals[name] += ms;
  }
  double Total(const std::string& name) const {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  }
  /// Time recorded so far inside handlers and timers.
  double Inside() const { return Total("handler") + Total("timer"); }
  std::vector<double> Get(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? std::vector<double>() : it->second;
  }
  size_t Count(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.size();
  }
};
Spans g_spans;

/// Runs `fn` and records its wall time under `name`.
template <typename Fn>
auto Timed(const char* name, Fn&& fn) {
  const double start = WallMs();
  auto result = fn();
  g_spans.Add(name, WallMs() - start);
  return result;
}

/// Runs `fn`, which drives the message plane, and records as "loop_self"
/// the process CPU time it used outside every timed handler and timer.
/// CPU, not wall time, so that an idle poll wait does not count; handler
/// and timer spans are wall time, which equals their CPU time as they never
/// block.
template <typename Fn>
auto InPlane(Fn&& fn) {
  if (!g_spans.enabled) return fn();
  const double start = CpuMs();
  const double inside = g_spans.Inside();
  auto result = fn();
  g_spans.Add("loop_self", CpuMs() - start - (g_spans.Inside() - inside));
  return result;
}

// ---------------------------------------------------------------------------
// Forwarding endpoint / network / scheduler that time what they forward
// ---------------------------------------------------------------------------

std::string NodeMessageSpan(const std::string& type) {
  if (type == "tx") return "node_msg.tx";
  if (type == "block") return "node_msg.block";
  return "node_msg.other";
}

/// Times every message handed to `inner`. Chain-node endpoints also record
/// a span per message type (time inside ChainNode::OnMessage).
class TimedEndpoint final : public net::Endpoint {
 public:
  TimedEndpoint(net::Endpoint* inner, bool chain_node)
      : inner_(inner), chain_node_(chain_node) {}

  void OnMessage(const net::Message& message) override {
    const double start = WallMs();
    ++g_spans.depth;
    inner_->OnMessage(message);
    --g_spans.depth;
    const double ms = WallMs() - start;
    if (g_spans.depth == 0) g_spans.Add("handler", ms);
    if (chain_node_) g_spans.Add(NodeMessageSpan(message.type), ms);
  }

 private:
  net::Endpoint* inner_;
  bool chain_node_;
};

/// A Network that attaches a TimedEndpoint in front of every endpoint and
/// forwards everything else. Wrappers are never freed before the network:
/// an endpoint may detach itself from inside its own handler.
class TimedNetwork final : public net::Network {
 public:
  TimedNetwork(net::Network* inner, std::set<std::string> node_ids)
      : inner_(inner), node_ids_(std::move(node_ids)) {}

  void Attach(const net::NodeId& id, net::Endpoint* endpoint) override {
    wrappers_.push_back(
        std::make_unique<TimedEndpoint>(endpoint, node_ids_.count(id) > 0));
    inner_->Attach(id, wrappers_.back().get());
  }
  void Detach(const net::NodeId& id) override { inner_->Detach(id); }
  bool IsAttached(const net::NodeId& id) const override {
    return inner_->IsAttached(id);
  }
  Status Send(net::Message message) override {
    return inner_->Send(std::move(message));
  }
  void Broadcast(const net::NodeId& from, const std::string& type,
                 const Json& payload) override {
    inner_->Broadcast(from, type, payload);
  }
  const Stats& stats() const override { return inner_->stats(); }
  void set_metrics(metrics::MetricsRegistry* registry) override {
    inner_->set_metrics(registry);
  }
  std::vector<net::NodeId> AttachedNodes() const override {
    return inner_->AttachedNodes();
  }

 private:
  net::Network* inner_;
  std::set<std::string> node_ids_;
  std::vector<std::unique_ptr<TimedEndpoint>> wrappers_;
};

/// A Scheduler that times every callback it forwards.
class TimedScheduler final : public net::Scheduler {
 public:
  explicit TimedScheduler(net::Scheduler* inner) : inner_(inner) {}

  Micros Now() const override { return inner_->Now(); }
  void Schedule(Micros delay, std::function<void()> fn) override {
    inner_->Schedule(delay, [fn = std::move(fn)] {
      const double start = WallMs();
      ++g_spans.depth;
      fn();
      --g_spans.depth;
      if (g_spans.depth == 0) g_spans.Add("timer", WallMs() - start);
    });
  }

 private:
  net::Scheduler* inner_;
};

/// Re-attaches timing wrappers under the ids of a simulated world's chain
/// nodes and live peers (SimNetwork::Attach replaces the entry). Declared
/// before the world in each episode so the wrappers outlive it.
class SimWrappers {
 public:
  void Wrap(net::Network& network, runtime::ChainNode& node) {
    Add(network, node.config().id, &node, true);
  }
  void Wrap(net::Network& network, core::Peer& peer) {
    net::Endpoint* target = peer.channel() != nullptr
                                ? static_cast<net::Endpoint*>(peer.channel())
                                : &peer;
    Add(network, peer.name(), target, false);
  }

 private:
  void Add(net::Network& network, const std::string& id,
           net::Endpoint* target, bool chain_node) {
    wrappers_.push_back(std::make_unique<TimedEndpoint>(target, chain_node));
    network.Attach(id, wrappers_.back().get());
  }
  std::vector<std::unique_ptr<TimedEndpoint>> wrappers_;
};

void WrapGenerated(core::GeneratedScenario& world, SimWrappers* wrappers) {
  if (!g_spans.enabled) return;
  for (size_t i = 0; i < world.node_count(); ++i) {
    wrappers->Wrap(world.network(), world.node(i));
  }
  for (size_t i = 0; i < world.peer_count(); ++i) {
    if (world.peer(i) != nullptr) {
      wrappers->Wrap(world.network(), *world.peer(i));
    }
  }
}

// ---------------------------------------------------------------------------
// Registry snapshots
// ---------------------------------------------------------------------------

/// {"counters":{..},"hist_sum":{..}} — the parts of a MetricsRegistry
/// snapshot the per-layer counts use, summed over several registries, plus
/// `extra` counters read from elsewhere.
Json CountSnapshot(const std::vector<Json>& snapshots,
                   std::map<std::string, int64_t> extra = {}) {
  std::map<std::string, int64_t> counters = std::move(extra);
  std::map<std::string, int64_t> hist_sum;
  for (const Json& snapshot : snapshots) {
    for (const auto& [name, value] : snapshot.At("counters").AsObject()) {
      counters[name] += value.AsInt();
    }
    for (const auto& [name, histogram] :
         snapshot.At("histograms").AsObject()) {
      hist_sum[name] += histogram.At("sum").AsInt();
    }
  }
  Json out = Json::MakeObject();
  Json c = Json::MakeObject();
  for (const auto& [name, value] : counters) c.Set(name, value);
  Json h = Json::MakeObject();
  for (const auto& [name, value] : hist_sum) h.Set(name, value);
  out.Set("counters", std::move(c));
  out.Set("hist_sum", std::move(h));
  return out;
}

double Delta(const Json& before, const Json& after, const char* group,
             const char* name) {
  auto value = [&](const Json& snapshot) -> double {
    const Json& map = snapshot.At(group);
    return map.Has(name) ? static_cast<double>(map.At(name).AsInt()) : 0.0;
  };
  return value(after) - value(before);
}

// ---------------------------------------------------------------------------
// Host-speed reference
// ---------------------------------------------------------------------------

/// The benchmark runs on shared hosts, where other tenants' load changes how
/// fast the CPU runs this process by 20% or more from one minute to the
/// next, so raw times of identical runs spread wider than a useful
/// regression bound. A run therefore times a fixed reference kernel between
/// episodes and reports every CPU time scaled by kRefNominalMs / (the
/// kernel's CPU time around that episode): times read as on a host where
/// the kernel takes kRefNominalMs. On the simulated workloads wall time is
/// CPU time plus waiting (wall minus CPU), and only the CPU part is scaled.
/// On loopback4 the plane's wall-clock timers set the wall times, so only
/// CPU times are scaled there. The unscaled figures are in the detail
/// record.
constexpr double kRefNominalMs = 20.0;
/// The kernel runs after the first episode that ends this long after its
/// previous run; each episode takes the mean of the runs before and after it.
constexpr double kRefEveryMs = 1000.0;

/// CPU time (ms) of the reference kernel: standard-library work shaped like
/// the program's (a string map built, dumped to text, parsed back and
/// hashed; linear scans for 64-hex-digit ids) on fixed inputs. It calls no
/// medsync code, so no change to the program moves it. Its working set, a
/// few MB, is what makes it slow down with the program under contention: a
/// version a third the size tracked the workloads less than half as well.
double RefKernel() {
  const double cpu0 = CpuMs();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  auto hex = [&](size_t n) {
    std::string out(n, '0');
    for (char& c : out) c = "0123456789abcdef"[next() & 15];
    return out;
  };
  std::vector<std::string> ids;
  std::map<std::string, std::string> table;
  for (int i = 0; i < 12000; ++i) {
    ids.push_back(hex(64));
    table[ids.back()] = hex(96);
  }
  std::string dump;
  for (const auto& [key, value] : table) {
    dump += StrCat("\"", key, "\":\"", value, "\",");
  }
  std::map<std::string, std::string> parsed;
  for (size_t pos = dump.find('"'); pos != std::string::npos;
       pos = dump.find('"', pos)) {
    const size_t key_end = dump.find('"', pos + 1);
    const size_t value_begin = dump.find('"', key_end + 1);
    const size_t value_end = dump.find('"', value_begin + 1);
    parsed.emplace(dump.substr(pos + 1, key_end - pos - 1),
                   dump.substr(value_begin + 1, value_end - value_begin - 1));
    pos = value_end + 1;
  }
  uint32_t hash = 2166136261u;
  for (int round = 0; round < 4; ++round) {
    for (unsigned char c : dump) hash = (hash ^ c) * 16777619u;
  }
  size_t found = 0;
  for (int query = 0; query < 40; ++query) {
    const std::string& target = ids[next() % ids.size()];
    for (const std::string& id : ids) {
      if (id == target) {
        ++found;
        break;
      }
    }
  }
  if (parsed.size() != table.size() || found != 40 || hash == 0) {
    std::fprintf(stderr, "medsync_bench: reference kernel miscomputed\n");
    std::exit(1);
  }
  return CpuMs() - cpu0;
}

/// `interval` as on the reference host: its CPU time scaled by `speed`
/// (kRefNominalMs / the episode's ref_ms), and its wall time too unless the
/// wall time is `timer_bound`, in which case it is as measured.
Interval Scaled(const Interval& interval, double speed, bool timer_bound) {
  const double wall =
      timer_bound ? interval.wall_ms
                  : interval.wall_ms + interval.cpu_ms * (speed - 1.0);
  return {wall, interval.cpu_ms * speed};
}

// ---------------------------------------------------------------------------
// Episodes
// ---------------------------------------------------------------------------

struct Episode {
  Interval setup;
  Interval timed;  // the timed phase
  /// CPU time of the reference kernel around this episode (see RefKernel).
  double ref_ms = 0;
  /// Wall times are set by wall-clock timers (blocks, ticks), not by CPU
  /// time, so they are not scaled to the reference host.
  bool timer_bound = false;
  /// Operations the benchmark attempted: `ops` except on soak16, where they
  /// are the schedule's events.
  uint64_t attempted = 0;
  /// Completed ops: the unit every per-op metric divides by.
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t skipped = 0;
  uint64_t restarts = 0;
  /// Transaction messages handled by chain nodes (traced episodes only);
  /// each one runs a Blockchain::FindTransaction.
  uint64_t node_tx_msgs = 0;
  std::vector<Interval> op_times;  // per-op latency
  std::vector<double> protocol_s;  // per-op latency on the plane's clock
  Json counts_before;
  Json counts_after;
  uint64_t final_height = 0;
  std::string fingerprint;
  Status oracle = Status::OK();
  Json probes;  // filled when the episode runs the layer probes
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool tamper = false;
  /// soak16 only: also replay the schedule through core::RunGeneratedSoak
  /// and require the same state fingerprint as the event-by-event replay.
  bool soak_reference = false;
};

/// Scratch directory inside the working directory (the benchmark reads and
/// writes only below where it is run).
std::string ScratchDir(const std::string& tag) {
  const fs::path dir = fs::path(".bench_tmp") /
                       StrCat(::getpid(), "-", tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

Status Check(bool condition, const std::string& what) {
  return condition ? Status::OK() : Status::Internal(what);
}

/// Deletes one row of `peer`'s local copy of `table_id`, behind the
/// protocol's back — the tampered oracle input of the self-tests.
Status TamperView(core::Peer& peer, const std::string& table_id) {
  MEDSYNC_ASSIGN_OR_RETURN(const core::SyncManager::ViewBinding* binding,
                           peer.sync().FindBinding(table_id));
  MEDSYNC_ASSIGN_OR_RETURN(const relational::Table* view,
                           peer.database().GetTable(binding->view_table));
  for (const auto& [key, row] : view->scan()) {
    return peer.database().Delete(binding->view_table, key);
  }
  return Status::FailedPrecondition("nothing to tamper with");
}

// ---------------------------------------------------------------------------
// Layer probes (run after the timed phase, on the state it produced)
// ---------------------------------------------------------------------------

struct ProbeTarget {
  runtime::ChainNode* node = nullptr;
  crypto::Address contract;
  crypto::Address caller;
  std::vector<std::string> table_ids;
  core::Peer* peer = nullptr;  // whose shared-table bindings BX/rel probe
};

template <typename Fn>
double TimeMs(Fn&& fn) {
  const double start = WallMs();
  fn();
  return WallMs() - start;
}

Status ProbeChain(const chain::Blockchain& chain, Json* out) {
  std::vector<double> canonical_us;
  std::vector<const chain::Block*> blocks;
  for (int i = 0; i < 5; ++i) {
    canonical_us.push_back(
        1e3 * TimeMs([&] { blocks = chain.CanonicalChain(); }));
  }
  std::vector<crypto::Hash256> ids;
  std::vector<double> id_us;
  for (const chain::Block* block : blocks) {
    for (const chain::Transaction& tx : block->transactions) {
      crypto::Hash256 id;
      id_us.push_back(1e3 * TimeMs([&] { id = tx.Id(); }));
      ids.push_back(id);
    }
  }
  MEDSYNC_RETURN_IF_ERROR(Check(!ids.empty(), "empty chain"));
  std::vector<double> find_us;
  const size_t step = std::max<size_t>(1, ids.size() / 64);
  for (size_t i = 0; i < ids.size(); i += step) {
    bool found = false;
    find_us.push_back(1e3 * TimeMs([&] {
      found = chain.FindTransaction(ids[i], nullptr, nullptr);
    }));
    MEDSYNC_RETURN_IF_ERROR(Check(found, "committed tx not found"));
  }
  // A lookup of an id that is not on the chain scans all of it: the case of
  // every freshly gossiped transaction.
  const crypto::Hash256 absent = crypto::Sha256::Hash("not on the chain");
  std::vector<double> miss_us;
  for (int i = 0; i < 5; ++i) {
    bool found = true;
    miss_us.push_back(1e3 * TimeMs([&] {
      found = chain.FindTransaction(absent, nullptr, nullptr);
    }));
    MEDSYNC_RETURN_IF_ERROR(Check(!found, "absent tx found"));
  }
  Status integrity = Status::OK();
  const double verify_ms = TimeMs([&] { integrity = chain.VerifyIntegrity(); });
  MEDSYNC_RETURN_IF_ERROR(integrity);
  out->Set("chain.find_tx_us", Metric(Median(find_us), "us"));
  out->Set("chain.find_tx_miss_us", Metric(Median(miss_us), "us"));
  out->Set("chain.canonical_chain_us", Metric(Median(canonical_us), "us"));
  out->Set("chain.tx_id_us", Metric(Median(id_us), "us"));
  out->Set("chain.verify_integrity_ms", Metric(verify_ms, "ms"));
  out->Set("chain.final_txs",
           Metric(static_cast<double>(ids.size()), "count"));

  // Serialization and frame codec over the final chain's block JSON.
  std::vector<Json> jsons;
  for (const chain::Block* block : blocks) jsons.push_back(block->ToJson());
  std::vector<std::string> dumps(jsons.size());
  const double dump_ms = TimeMs([&] {
    for (size_t i = 0; i < jsons.size(); ++i) dumps[i] = jsons[i].Dump();
  });
  double bytes = 0;
  for (const std::string& d : dumps) bytes += static_cast<double>(d.size());
  Status parsed = Status::OK();
  const double parse_ms = TimeMs([&] {
    for (const std::string& d : dumps) {
      Result<Json> json = Json::Parse(d);
      if (!json.ok()) parsed = json.status();
    }
  });
  MEDSYNC_RETURN_IF_ERROR(parsed);
  crypto::Hash256 digest;
  const double sha_ms = TimeMs([&] {
    for (const std::string& d : dumps) digest = crypto::Sha256::Hash(d);
  });
  const double mb = bytes / 1e6;
  out->Set("json.dump_mb_s", Metric(mb / (dump_ms / 1e3), "MB/s"));
  out->Set("json.parse_mb_s", Metric(mb / (parse_ms / 1e3), "MB/s"));
  out->Set("crypto.sha256_mb_s", Metric(mb / (sha_ms / 1e3), "MB/s"));

  std::vector<double> encode_us;
  std::vector<double> decode_us;
  for (const std::string& d : dumps) {
    std::string frame;
    encode_us.push_back(
        1e3 * TimeMs([&] { frame = net::EncodeFrame({"block", d}); }));
    net::FrameDecoder decoder;
    Result<std::optional<net::Frame>> next = std::optional<net::Frame>();
    decode_us.push_back(1e3 * TimeMs([&] {
      decoder.Feed(frame);
      next = decoder.Next();
    }));
    MEDSYNC_RETURN_IF_ERROR(
        Check(next.ok() && next->has_value() && (*next)->payload == d,
              "frame round trip"));
  }
  out->Set("net.frame_encode_us", Metric(Median(encode_us), "us"));
  out->Set("net.frame_decode_us", Metric(Median(decode_us), "us"));
  return Status::OK();
}

/// Replays the canonical chain's calls into a benchmark-owned metadata
/// contract with the host's per-transaction snapshot/rollback, timing the
/// snapshot (the rollback copy), and checks the replayed entries equal the
/// node's.
Status ProbeContract(const ProbeTarget& target, Json* out) {
  std::unique_ptr<contracts::Contract> contract;
  std::vector<double> snapshot_us;
  for (const chain::Block* block : target.node->blockchain().CanonicalChain()) {
    for (const chain::Transaction& tx : block->transactions) {
      if (tx.to.IsZero()) {
        if (contracts::ContractHost::DeploymentAddress(tx) == target.contract) {
          MEDSYNC_ASSIGN_OR_RETURN(
              contract, contracts::MetadataContract::Create(tx.params));
        }
        continue;
      }
      if (tx.to != target.contract || contract == nullptr) continue;
      contracts::GasMeter gas(1'000'000);
      std::vector<contracts::Event> events;
      contracts::CallContext ctx;
      ctx.caller = tx.from;
      ctx.contract = tx.to;
      ctx.block_height = block->header.height;
      ctx.block_timestamp = block->header.timestamp;
      ctx.gas = &gas;
      ctx.events = &events;
      MEDSYNC_RETURN_IF_ERROR(ctx.Charge(21000));
      Json before;
      snapshot_us.push_back(
          1e3 * TimeMs([&] { before = contract->StateSnapshot(); }));
      Result<Json> result = contract->Call(ctx, tx.method, tx.params);
      if (!result.ok()) MEDSYNC_RETURN_IF_ERROR(contract->RestoreState(before));
    }
  }
  MEDSYNC_RETURN_IF_ERROR(Check(contract != nullptr, "contract not deployed"));
  std::vector<double> get_entry_us;
  for (const std::string& table_id : target.table_ids) {
    Json params = Json::MakeObject();
    params.Set("table_id", table_id);
    Result<Json> entry = Status::OK();
    get_entry_us.push_back(1e3 * TimeMs([&] {
      entry = target.node->Query(target.contract, "get_entry", params,
                                 target.caller);
    }));
    MEDSYNC_RETURN_IF_ERROR(entry.status());
    contracts::GasMeter gas(1'000'000);
    contracts::CallContext ctx;
    ctx.caller = target.caller;
    ctx.contract = target.contract;
    ctx.read_only = true;
    ctx.gas = &gas;
    MEDSYNC_ASSIGN_OR_RETURN(Json replayed,
                             contract->Call(ctx, "get_entry", params));
    MEDSYNC_RETURN_IF_ERROR(
        Check(replayed == *entry, "replayed contract entry differs: " +
                                      table_id));
  }
  out->Set("contracts.state_snapshot_us", Metric(Median(snapshot_us), "us"));
  out->Set("contracts.state_snapshot_kb",
           Metric(static_cast<double>(contract->StateSnapshot().Dump().size()) /
                      1024.0,
                  "KiB"));
  out->Set("contracts.get_entry_us", Metric(Median(get_entry_us), "us"));
  return Status::OK();
}

/// BX and relational probes on the largest shared-table source of
/// `target.peer`.
Status ProbeBxAndRelational(const ProbeTarget& target, Json* out) {
  core::Peer& peer = *target.peer;
  const core::SyncManager::ViewBinding* best = nullptr;
  size_t best_rows = 0;
  for (const std::string& table_id : peer.sync().ViewIds()) {
    MEDSYNC_ASSIGN_OR_RETURN(const core::SyncManager::ViewBinding* binding,
                             peer.sync().FindBinding(table_id));
    MEDSYNC_ASSIGN_OR_RETURN(const relational::Table* source,
                             peer.database().GetTable(binding->source_table));
    if (best == nullptr || source->row_count() > best_rows) {
      best = binding;
      best_rows = source->row_count();
    }
  }
  MEDSYNC_RETURN_IF_ERROR(Check(best != nullptr, "peer shares no table"));
  relational::Database& db = peer.database();

  std::vector<double> snapshot_ms;
  std::vector<double> digest_ms;
  std::vector<double> scan_ms;
  relational::Table source;
  for (int i = 0; i < 3; ++i) {
    Result<relational::Table> snap = Status::OK();
    snapshot_ms.push_back(
        TimeMs([&] { snap = db.Snapshot(best->source_table); }));
    MEDSYNC_RETURN_IF_ERROR(snap.status());
    source = std::move(*snap);
    std::string digest;
    digest_ms.push_back(TimeMs([&] { digest = source.ContentDigest(); }));
    size_t rows = 0;
    scan_ms.push_back(TimeMs([&] {
      for (const auto& entry : source.scan()) {
        rows += entry.row.size();
      }
    }));
    MEDSYNC_RETURN_IF_ERROR(Check(rows > 0, "empty scan"));
  }
  out->Set("rel.snapshot_ms", Metric(Median(snapshot_ms), "ms"));
  out->Set("rel.content_digest_ms", Metric(Median(digest_ms), "ms"));
  out->Set("rel.scan_mrows_s",
           Metric(static_cast<double>(source.row_count()) / 1e6 /
                      (Median(scan_ms) / 1e3),
                  "Mrows/s"));

  // BX: get, put of the unchanged view, and the delta push of a one-row
  // delete (the first source row).
  const bx::Lens& lens = *best->lens;
  std::vector<double> get_ms;
  std::vector<double> put_ms;
  std::vector<double> push_us;
  relational::Table view;
  for (int i = 0; i < 3; ++i) {
    Result<relational::Table> got = Status::OK();
    get_ms.push_back(TimeMs([&] { got = lens.Get(source); }));
    MEDSYNC_RETURN_IF_ERROR(got.status());
    view = std::move(*got);
    Result<relational::Table> put = Status::OK();
    put_ms.push_back(TimeMs([&] { put = lens.Put(source, view); }));
    MEDSYNC_RETURN_IF_ERROR(put.status());
  }
  relational::Table changed = source;
  for (const auto& [key, row] : source.scan()) {
    MEDSYNC_RETURN_IF_ERROR(changed.Delete(key));
    break;
  }
  MEDSYNC_ASSIGN_OR_RETURN(relational::TableDelta delta,
                           relational::ComputeDelta(source, changed));
  for (int i = 0; i < 5; ++i) {
    Result<relational::TableDelta> pushed = Status::OK();
    push_us.push_back(
        1e3 * TimeMs([&] { pushed = lens.PushDelta(source, delta); }));
    if (!pushed.ok() && !pushed.status().IsUnimplemented()) {
      return pushed.status();
    }
  }
  out->Set("bx.get_ms", Metric(Median(get_ms), "ms"));
  out->Set("bx.put_ms", Metric(Median(put_ms), "ms"));
  out->Set("bx.push_delta_us", Metric(Median(push_us), "us"));

  // Durable storage: WAL append (synced, as the database commits), then a
  // checkpoint and a recovery of the source table in a fresh directory.
  const std::string dir = ScratchDir("probe");
  {
    relational::Wal::Options options;
    options.sync_every_append = true;
    MEDSYNC_ASSIGN_OR_RETURN(
        relational::Wal wal,
        relational::Wal::Open(dir + "/probe.wal", nullptr, options));
    std::vector<double> append_us;
    size_t n = 0;
    for (const auto& [key, row] : source.scan()) {
      Json payload = Json::MakeObject();
      payload.Set("row", relational::RowToJson(row));
      Result<uint64_t> lsn = Status::OK();
      append_us.push_back(1e3 * TimeMs([&] { lsn = wal.Append(payload); }));
      MEDSYNC_RETURN_IF_ERROR(lsn.status());
      if (++n == 32) break;
    }
    out->Set("rel.wal_append_us", Metric(Median(append_us), "us"));
  }
  {
    MEDSYNC_ASSIGN_OR_RETURN(relational::Database durable,
                             relational::Database::Open(dir + "/db"));
    MEDSYNC_RETURN_IF_ERROR(durable.CreateTable("t", source.schema()));
    MEDSYNC_RETURN_IF_ERROR(durable.ReplaceTable("t", source));
    Status checkpoint = Status::OK();
    out->Set("rel.checkpoint_ms",
             Metric(TimeMs([&] { checkpoint = durable.Checkpoint(); }), "ms"));
    MEDSYNC_RETURN_IF_ERROR(checkpoint);
  }
  Result<relational::Database> reopened = Status::OK();
  out->Set("rel.recover_ms", Metric(TimeMs([&] {
                                      reopened = relational::Database::Open(
                                          dir + "/db");
                                    }),
                                    "ms"));
  MEDSYNC_RETURN_IF_ERROR(reopened.status());
  MEDSYNC_ASSIGN_OR_RETURN(const relational::Table* recovered,
                           reopened->GetTable("t"));
  MEDSYNC_RETURN_IF_ERROR(Check(recovered->ContentDigest() ==
                                    source.ContentDigest(),
                                "recovered table differs"));
  fs::remove_all(dir);
  return Status::OK();
}

Status RunProbes(const ProbeTarget& target, Json* out) {
  *out = Json::MakeObject();
  MEDSYNC_RETURN_IF_ERROR(ProbeChain(target.node->blockchain(), out));
  MEDSYNC_RETURN_IF_ERROR(ProbeContract(target, out));
  return ProbeBxAndRelational(target, out);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A populated key of `table` (its select range intersected with the
/// provider's populated slice), chosen by `rng`.
int64_t PickPopulatedKey(const core::NetworkSpec& spec,
                         const core::SharedTableSpec& table, Rng& rng) {
  const core::PeerSpec& provider = spec.peers[table.provider];
  const int64_t lo = std::max(table.key_lo, provider.id_begin);
  const int64_t hi =
      std::min(table.key_hi, provider.id_begin +
                                 static_cast<int64_t>(provider.populated) - 1);
  return hi < lo ? table.key_lo : rng.NextInRange(lo, hi);
}

/// The oracles of a generated world after its timed phase (after an
/// optional tamper), its fingerprint, and the layer probes when asked.
Status CheckGenerated(const RunConfig& config, core::GeneratedScenario& world,
                      bool probe, Episode* ep) {
  const core::NetworkSpec& spec = world.spec();
  if (config.tamper) {
    const core::SharedTableSpec& table = spec.tables[0];
    MEDSYNC_RETURN_IF_ERROR(
        TamperView(*world.peer(table.consumer), table.table_id));
  }
  // Fingerprint first, as core::RunGeneratedSoak does: the oracles'
  // contract queries are themselves counted in the metrics it covers.
  ep->fingerprint = world.Fingerprint();
  ep->oracle = world.VerifyConverged();
  if (ep->oracle.ok()) ep->oracle = world.VerifyAuditGapless();
  if (!probe || !ep->oracle.ok()) return Status::OK();
  ProbeTarget target;
  target.node = &world.node(0);
  target.contract = world.contract();
  target.caller = world.peer_address(0);
  for (const auto& table : spec.tables) {
    target.table_ids.push_back(table.table_id);
  }
  target.peer = world.peer(spec.tables[0].provider);
  return RunProbes(target, &ep->probes);
}

/// The generated networks are fixed (seed 77: 31 shared tables at 32 peers,
/// as bench_generated_scale uses), so that the run seed varies what the
/// operations write and which schedule runs, not how many tables a network
/// happens to have.
constexpr uint64_t kNetworkSeed = 77;

/// rounds32: 32-peer generated network; each round every provider pushes
/// one source update per shared table, then the network settles.
Status RunRounds(const RunConfig& config, uint64_t seed, bool probe,
                 Episode* ep) {
  core::GenOptions options;
  options.seed = kNetworkSeed;
  options.peers = config.tiny ? 6 : 32;
  options.rows_per_provider = 6;
  options.chain_node_count = 3;
  options.worker_threads = 0;
  options.lane_count = 1;
  options.check_bx_laws = false;
  const size_t rounds = config.tiny ? 1 : 2;

  SimWrappers wrappers;
  const Stopwatch setup;
  MEDSYNC_ASSIGN_OR_RETURN(std::unique_ptr<core::GeneratedScenario> world,
                           core::GeneratedScenario::Create(options));
  ep->setup = setup.Elapsed();
  WrapGenerated(*world, &wrappers);
  const core::NetworkSpec& spec = world->spec();
  ep->counts_before = CountSnapshot({world->MetricsSnapshot()});

  Rng rng(seed ^ 0x5eedULL);
  const Stopwatch timed;
  for (size_t round = 0; round < rounds; ++round) {
    const Micros sim_start = world->simulator().Now();
    std::vector<Stopwatch> starts;
    for (size_t t = 0; t < spec.tables.size(); ++t) {
      const core::SharedTableSpec& table = spec.tables[t];
      const core::PeerSpec& provider = spec.peers[table.provider];
      const int64_t key = PickPopulatedKey(spec, table, rng);
      const std::string token = StrCat("r", seed, "-", round, "-", t);
      starts.emplace_back();
      Status s = Timed("initiate", [&] {
        return world->peer(table.provider)
            ->UpdateSourceAndPropagate(
                provider.source_table, [&](relational::Database* db) {
                  return db->UpdateAttribute(provider.source_table,
                                             {Value::Int(key)},
                                             table.raw_attributes[0],
                                             Value::String(token));
                });
      });
      ++ep->ops;
      if (!s.ok()) ++ep->failed;
    }
    Status settled = Timed("settle", [&] {
      return InPlane([&] { return world->SettleAll(); });
    });
    if (!settled.ok()) return settled;
    for (const Stopwatch& start : starts) {
      ep->op_times.push_back(start.Elapsed());
    }
    const double sim_s =
        static_cast<double>(world->simulator().Now() - sim_start) /
        kMicrosPerSecond;
    for (size_t t = 0; t < starts.size(); ++t) ep->protocol_s.push_back(sim_s);
  }
  ep->timed = timed.Elapsed();
  ep->attempted = ep->ops;
  ep->counts_after = CountSnapshot({world->MetricsSnapshot()});
  ep->final_height = world->node(0).blockchain().height();

  return CheckGenerated(config, *world, probe, ep);
}

/// bigview4k: the Fig. 5 clinic over generated records; cascades alternate
/// between a doctor-side medication rename on D13&D31 (two hops: the
/// dependency check re-derives D32) and a researcher-side mechanism update
/// in source D2 (get direction only).
Status RunBigView(const RunConfig& config, uint64_t seed, bool probe,
                  Episode* ep) {
  constexpr const char* kPD = core::ClinicScenario::kPatientDoctorTable;
  constexpr const char* kDR = core::ClinicScenario::kDoctorResearcherTable;
  core::ScenarioOptions options;
  options.seed = seed;
  options.record_count = config.tiny ? 64 : 4096;
  options.block_interval = 1 * kMicrosPerSecond;
  options.worker_threads = 0;
  const size_t pairs = config.tiny ? 2 : 8;

  SimWrappers wrappers;
  const Stopwatch setup;
  MEDSYNC_ASSIGN_OR_RETURN(std::unique_ptr<core::ClinicScenario> clinic,
                           core::ClinicScenario::Create(options));
  ep->setup = setup.Elapsed();
  if (g_spans.enabled) {
    for (size_t i = 0; i < clinic->node_count(); ++i) {
      wrappers.Wrap(clinic->network(), clinic->node(i));
    }
    for (core::Peer* peer :
         {&clinic->doctor(), &clinic->patient(), &clinic->researcher()}) {
      wrappers.Wrap(clinic->network(), *peer);
    }
  }
  ep->counts_before = CountSnapshot({clinic->MetricsSnapshot()});

  std::vector<relational::Key> ids;
  {
    MEDSYNC_ASSIGN_OR_RETURN(const relational::Table* d3,
                             clinic->doctor().database().GetTable("D3"));
    for (const auto& [key, row] : d3->scan()) ids.push_back(key);
  }
  auto versions = [&]() -> Result<std::pair<int64_t, int64_t>> {
    MEDSYNC_ASSIGN_OR_RETURN(Json pd, clinic->Entry(kPD));
    MEDSYNC_ASSIGN_OR_RETURN(Json dr, clinic->Entry(kDR));
    MEDSYNC_RETURN_IF_ERROR(Check(
        pd.At("pending_acks").size() == 0 && dr.At("pending_acks").size() == 0,
        "acks pending after settle"));
    return std::make_pair(pd.At("version").AsInt(), dr.At("version").AsInt());
  };

  Rng rng(seed ^ 0xb16ULL);
  // One op is a pair of cascades, doctor side then researcher side: the two
  // kinds differ in cost, so a per-cascade median would sit between them.
  auto cascade = [&](bool doctor_side, const std::string& token) -> Status {
    MEDSYNC_ASSIGN_OR_RETURN(auto before, versions());
    Status s;
    if (doctor_side) {
      const relational::Key& id = ids[rng.NextBelow(ids.size())];
      s = Timed("initiate", [&] {
        return clinic->doctor().UpdateSharedAttribute(
            kPD, id, medical::kMedicationName, Value::String("Med-" + token));
      });
    } else {
      MEDSYNC_ASSIGN_OR_RETURN(const relational::Table* d2,
                               clinic->researcher().database().GetTable("D2"));
      const relational::Key med = d2->NthKey(rng.NextBelow(d2->row_count()));
      s = Timed("initiate", [&] {
        return clinic->researcher().UpdateSourceAndPropagate(
            "D2", [&](relational::Database* db) {
              return db->UpdateAttribute("D2", med,
                                         medical::kMechanismOfAction,
                                         Value::String(token));
            });
      });
    }
    MEDSYNC_RETURN_IF_ERROR(s);
    MEDSYNC_RETURN_IF_ERROR(Timed("settle", [&] {
      return InPlane([&] { return clinic->SettleAll(); });
    }));
    MEDSYNC_ASSIGN_OR_RETURN(auto after, versions());
    // A rename changes both views (two hops); a mechanism update only D32.
    const std::pair<int64_t, int64_t> expected =
        doctor_side ? std::make_pair(before.first + 1, before.second + 1)
                    : std::make_pair(before.first, before.second + 1);
    if (after != expected && ep->oracle.ok()) {
      ep->oracle = Status::Internal(
          StrCat(token, ": entry versions ", after.first, "/", after.second,
                 ", expected ", expected.first, "/", expected.second));
    }
    return Status::OK();
  };

  const Stopwatch timed;
  for (size_t i = 0; i < pairs; ++i) {
    const Micros sim_start = clinic->simulator().Now();
    const Stopwatch start;
    ++ep->ops;
    for (bool doctor_side : {true, false}) {
      Status s = cascade(doctor_side, StrCat("b", seed, "-", i, doctor_side));
      if (!s.ok()) {
        if (s.IsTimeout()) return s;
        ++ep->failed;
        break;
      }
    }
    ep->op_times.push_back(start.Elapsed());
    ep->protocol_s.push_back(
        static_cast<double>(clinic->simulator().Now() - sim_start) /
        kMicrosPerSecond);
  }
  ep->timed = timed.Elapsed();
  ep->attempted = ep->ops;
  ep->counts_after = CountSnapshot({clinic->MetricsSnapshot()});
  ep->final_height = clinic->node(0).blockchain().height();

  if (config.tamper) {
    MEDSYNC_RETURN_IF_ERROR(TamperView(clinic->patient(), kPD));
  }
  // Counterpart views byte-equal, and equal to the on-chain digest.
  const std::vector<std::pair<const char*, std::vector<core::Peer*>>> sides = {
      {kPD, {&clinic->doctor(), &clinic->patient()}},
      {kDR, {&clinic->doctor(), &clinic->researcher()}}};
  std::string fingerprint;
  for (const auto& [table_id, peers] : sides) {
    MEDSYNC_ASSIGN_OR_RETURN(Json entry, clinic->Entry(table_id));
    for (core::Peer* peer : peers) {
      MEDSYNC_ASSIGN_OR_RETURN(relational::Table view,
                               peer->ReadSharedTable(table_id));
      const std::string digest = view.ContentDigest();
      if (digest != entry.At("content_digest").AsString() && ep->oracle.ok()) {
        ep->oracle = Status::Internal(StrCat(peer->name(), "'s ", table_id,
                                             " differs from the on-chain "
                                             "digest"));
      }
      fingerprint += digest;
    }
  }
  ep->fingerprint = crypto::Sha256::Hash(fingerprint).ToHex();
  if (probe && ep->oracle.ok()) {
    ProbeTarget target;
    target.node = &clinic->node(0);
    target.contract = clinic->contract();
    target.caller = clinic->doctor().address();
    target.table_ids = {kPD, kDR};
    target.peer = &clinic->doctor();
    MEDSYNC_RETURN_IF_ERROR(RunProbes(target, &ep->probes));
  }
  return Status::OK();
}

/// soak16: 16-peer generated network with two durable consumers, replaying
/// GenerateSchedule's adversity mix one event at a time, then closing the
/// run with WorkloadRunner::Finish.
Status RunSoak(const RunConfig& config, uint64_t seed, bool probe,
               Episode* ep) {
  core::GenOptions options;
  options.seed = kNetworkSeed;
  options.peers = config.tiny ? 6 : 16;
  options.worker_threads = 0;
  options.lane_count = 1;
  options.durable_root = ScratchDir(StrCat("soak-", seed));
  options.durable_peer_count = 2;
  core::WorkloadOptions workload;
  workload.seed = seed;
  workload.events = config.tiny ? 12 : 48;

  Status status = [&]() -> Status {
    SimWrappers wrappers;
    const Stopwatch setup;
    MEDSYNC_ASSIGN_OR_RETURN(std::unique_ptr<core::GeneratedScenario> world,
                             core::GeneratedScenario::Create(options));
    const core::Schedule schedule =
        core::GenerateSchedule(world->spec(), workload);
    ep->setup = setup.Elapsed();
    WrapGenerated(*world, &wrappers);
    ep->counts_before = CountSnapshot({world->MetricsSnapshot()});

    // The op is a committed update (peer.updates_committed: initiated ones
    // and the cascades they cause); the attempts are the schedule's events,
    // and a contract denial is an outcome, not a failure. An op's latency is
    // the wall time of the event that initiates a cascade (source or view
    // update, row insert or delete): the schedule does not wait for a
    // cascade to settle, so the events after it run while it is in flight.
    auto is_cascade = [](core::EventKind kind) {
      return kind == core::EventKind::kSourceUpdate ||
             kind == core::EventKind::kViewUpdate ||
             kind == core::EventKind::kInsertRow ||
             kind == core::EventKind::kDeleteRow;
    };
    const Stopwatch timed;
    for (const core::WorkloadEvent& event : schedule.events) {
      core::Schedule one;
      one.options = schedule.options;
      one.events = {event};
      core::WorkloadRunner runner(world.get(), &one);
      const Stopwatch start;
      Status s = Timed("initiate", [&] {
        return InPlane([&] { return runner.RunPrefix(1); });
      });
      ++ep->attempted;
      if (is_cascade(event.kind)) ep->op_times.push_back(start.Elapsed());
      if (!s.ok()) {
        ++ep->failed;
        continue;
      }
      ep->skipped += runner.skipped();
      if (event.kind == core::EventKind::kRestart) {
        ep->restarts += runner.executed();
        WrapGenerated(*world, &wrappers);
      }
    }
    core::Schedule none;
    core::WorkloadRunner closer(world.get(), &none);
    MEDSYNC_RETURN_IF_ERROR(Timed("settle", [&] {
      return InPlane([&] { return closer.Finish(); });
    }));
    WrapGenerated(*world, &wrappers);
    ep->timed = timed.Elapsed();
    ep->protocol_s.push_back(
        static_cast<double>(world->simulator().Now() - world->spec().epoch) /
        kMicrosPerSecond);
    ep->counts_after = CountSnapshot({world->MetricsSnapshot()});
    ep->ops = static_cast<uint64_t>(
        Delta(ep->counts_before, ep->counts_after, "counters",
              "peer.updates_committed"));
    ep->final_height = world->node(0).blockchain().height();

    return CheckGenerated(config, *world, probe, ep);
  }();
  fs::remove_all(options.durable_root);
  if (status.ok() && config.soak_reference) {
    // Same directory name: durable paths are part of the fingerprint.
    options.durable_root = ScratchDir(StrCat("soak-", seed));
    core::SoakReport report;
    Status reference =
        core::RunGeneratedSoak(options, workload, SIZE_MAX, &report);
    fs::remove_all(options.durable_root);
    MEDSYNC_RETURN_IF_ERROR(reference);
    if (report.fingerprint != ep->fingerprint && ep->oracle.ok()) {
      ep->oracle = Status::Internal(
          "event-by-event replay diverged from RunGeneratedSoak");
    }
  }
  return status;
}

/// loopback4: four ClinicDaemons over one EventLoop and four loopback
/// SocketTransports; one Fig. 5 cascade per deployment.
Status RunLoopback(const RunConfig& config, uint64_t /*seed*/, bool probe,
                   Episode* ep) {
  using core::ClinicDaemon;
  using core::ClinicRole;
  const std::vector<ClinicRole> roles = {ClinicRole::kDoctor,
                                         ClinicRole::kPatient,
                                         ClinicRole::kResearcher,
                                         ClinicRole::kObserver};
  // Spans cover the cascade only: recording starts when set-up ends.
  const bool traced = g_spans.enabled;
  g_spans.enabled = false;
  ep->timer_bound = true;
  const Stopwatch setup;
  net::EventLoop loop;
  TimedScheduler timed_loop(&loop);
  std::vector<std::unique_ptr<net::SocketTransport>> transports;
  for (size_t i = 0; i < roles.size(); ++i) {
    transports.push_back(std::make_unique<net::SocketTransport>(
        &loop, net::SocketTransportOptions()));
    MEDSYNC_RETURN_IF_ERROR(transports.back()->Listen());
  }
  std::set<std::string> node_ids;
  for (size_t i = 0; i < roles.size(); ++i) {
    node_ids.insert(
        runtime::NodeDaemon::NodeIdFor(ClinicDaemon::NodeIndexFor(roles[i])));
    for (size_t j = 0; j < roles.size(); ++j) {
      if (i == j) continue;
      const std::string address =
          StrCat("127.0.0.1:", transports[j]->port());
      for (const std::string& id : ClinicDaemon::LocalIds(roles[j])) {
        transports[i]->AddRoute(id, address);
      }
    }
  }
  std::vector<std::unique_ptr<TimedNetwork>> timed_nets;
  std::vector<std::unique_ptr<ClinicDaemon>> daemons;
  for (size_t i = 0; i < roles.size(); ++i) {
    core::ClinicDaemonOptions options;
    options.role = roles[i];
    options.block_interval = 50 * kMicrosPerMilli;
    options.tick_interval = 10 * kMicrosPerMilli;
    options.timeout = 60 * kMicrosPerSecond;
    net::Scheduler* scheduler = &loop;
    net::Network* network = transports[i].get();
    if (traced) {
      timed_nets.push_back(
          std::make_unique<TimedNetwork>(transports[i].get(), node_ids));
      scheduler = &timed_loop;
      network = timed_nets.back().get();
    }
    MEDSYNC_ASSIGN_OR_RETURN(std::unique_ptr<ClinicDaemon> daemon,
                             ClinicDaemon::Create(options, scheduler, network));
    daemons.push_back(std::move(daemon));
  }
  for (auto& daemon : daemons) daemon->Start();

  core::Peer* researcher = daemons[2]->peer();
  auto failed = [&]() -> Status {
    for (auto& daemon : daemons) {
      if (daemon->failed()) return daemon->failure();
    }
    return Status::OK();
  };
  auto all_converged = [&] {
    for (auto& daemon : daemons) {
      if (!daemon->converged()) return false;
    }
    return true;
  };
  // The daemons do not wire their transports into the registry, so the
  // message counts come from the transports' own stats.
  auto snapshots = [&] {
    std::vector<Json> out;
    for (auto& daemon : daemons) out.push_back(daemon->metrics().Snapshot());
    std::map<std::string, int64_t> net;
    for (auto& transport : transports) {
      net["net.sent"] += static_cast<int64_t>(transport->stats().sent);
      net["net.bytes"] += static_cast<int64_t>(transport->stats().bytes);
    }
    return CountSnapshot(out, std::move(net));
  };
  auto run_once = [&] {
    const double start = WallMs();
    InPlane([&] { return loop.RunOnce(20 * kMicrosPerMilli); });
    return WallMs() - start;
  };

  // Set-up ends when the researcher fires its update.
  const double deadline = WallMs() + 60e3;
  double act_iteration_ms = 0;
  while (researcher->stats().updates_proposed == 0) {
    MEDSYNC_RETURN_IF_ERROR(failed());
    if (WallMs() > deadline) return Status::Timeout("researcher never acted");
    act_iteration_ms = run_once();
  }
  g_spans.enabled = traced;
  g_spans.Add("initiate", act_iteration_ms);
  const Stopwatch timed;
  ep->setup = setup.Elapsed();
  ep->counts_before = snapshots();
  while (!all_converged()) {
    MEDSYNC_RETURN_IF_ERROR(failed());
    if (WallMs() > deadline) return Status::Timeout("cascade did not converge");
    run_once();
  }
  ep->timed = timed.Elapsed();
  g_spans.Add("settle", ep->timed.wall_ms);
  ep->ops = 1;
  ep->attempted = 1;
  ep->op_times.push_back(ep->timed);
  ep->counts_after = snapshots();
  ep->final_height = daemons[0]->chain_node().blockchain().height();

  if (config.tamper) {
    MEDSYNC_RETURN_IF_ERROR(TamperView(
        *daemons[1]->peer(), core::ClinicScenario::kPatientDoctorTable));
  }
  // Oracles: every role converged; entries and audit agree across roles;
  // every hosted view's digest equals the on-chain digest.
  std::vector<Json> reports;
  for (auto& daemon : daemons) reports.push_back(daemon->Report());
  Micros acted_at = reports[2].At("info").At("acted_at").AsInt();
  Micros converged_at = 0;
  std::string fingerprint;
  for (size_t i = 0; i < reports.size(); ++i) {
    const Json& compare = reports[i].At("compare");
    converged_at = std::max<Micros>(
        converged_at, reports[i].At("info").At("converged_at").AsInt());
    for (const char* key : {"entries", "audit"}) {
      if (compare.At(key) != reports[0].At("compare").At(key) &&
          ep->oracle.ok()) {
        ep->oracle = Status::Internal(
            StrCat(core::ClinicRoleName(roles[i]), " disagrees on ", key));
      }
    }
    for (const auto& [table_id, digest] :
         compare.At("view_digests").AsObject()) {
      const Json& entry = compare.At("entries").At(table_id);
      if (entry.At("content_digest") != digest && ep->oracle.ok()) {
        ep->oracle = Status::Internal(
            StrCat(core::ClinicRoleName(roles[i]), "'s ", table_id,
                   " differs from the on-chain digest"));
      }
      if (entry.At("version").AsInt() != 2 && ep->oracle.ok()) {
        ep->oracle = Status::Internal(StrCat(table_id, " not at version 2"));
      }
    }
    fingerprint += compare.Dump();
  }
  ep->protocol_s.push_back(static_cast<double>(converged_at - acted_at) /
                           kMicrosPerSecond);
  ep->fingerprint = crypto::Sha256::Hash(fingerprint).ToHex();
  if (probe && ep->oracle.ok()) {
    ProbeTarget target;
    target.node = &daemons[0]->chain_node();
    target.contract = crypto::Address();
    // The doctor deploys the contract first; its address is the deploy
    // transaction's, found by the probe's replay.
    for (const chain::Block* block :
         target.node->blockchain().CanonicalChain()) {
      for (const chain::Transaction& tx : block->transactions) {
        if (tx.to.IsZero() && target.contract.IsZero()) {
          target.contract = contracts::ContractHost::DeploymentAddress(tx);
        }
      }
    }
    target.caller = daemons[0]->peer()->address();
    target.table_ids = {core::ClinicScenario::kPatientDoctorTable,
                        core::ClinicScenario::kDoctorResearcherTable};
    target.peer = daemons[0]->peer();
    MEDSYNC_RETURN_IF_ERROR(RunProbes(target, &ep->probes));
  }
  return Status::OK();
}

using WorkloadFn = Status (*)(const RunConfig&, uint64_t, bool, Episode*);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "rounds32") return RunRounds;
  if (name == "bigview4k") return RunBigView;
  if (name == "soak16") return RunSoak;
  if (name == "loopback4") return RunLoopback;
  return nullptr;
}

uint64_t EpisodeSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) % 1000000 + 1;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Figures of a set of episodes, scaled to the reference host unless `raw`:
/// the timed phases' totals (rates are pooled over the whole run: a run has
/// only about ten episodes on the simulated workloads, and their mean is
/// steadier than their median), per-episode set-up times, and every op's
/// latency.
struct Totals {
  double cpu_ms = 0;
  double wall_ms = 0;
  uint64_t ops = 0;
  std::vector<double> setup_s;
  std::vector<double> cpu_ms_per_op;  // per episode, for the detail record
  std::vector<double> op_ms;
};

Totals Total(const std::vector<const Episode*>& episodes, bool raw = false) {
  Totals t;
  for (const Episode* ep : episodes) {
    const double speed = raw ? 1.0 : kRefNominalMs / ep->ref_ms;
    const double ops = static_cast<double>(ep->ops);
    auto scaled = [&](const Interval& interval) {
      return Scaled(interval, speed, ep->timer_bound);
    };
    const Interval timed = scaled(ep->timed);
    t.cpu_ms += timed.cpu_ms;
    t.wall_ms += timed.wall_ms;
    t.ops += ep->ops;
    t.setup_s.push_back(scaled(ep->setup).wall_ms / 1e3);
    t.cpu_ms_per_op.push_back(timed.cpu_ms / ops);
    for (const Interval& op : ep->op_times) {
      t.op_ms.push_back(scaled(op).wall_ms);
    }
  }
  return t;
}

Json EndToEnd(const Totals& t) {
  Json metrics = Json::MakeObject();
  metrics.Set("setup_s", Metric(Median(t.setup_s), "s"));
  const double ops = static_cast<double>(t.ops);
  metrics.Set("ops_per_s", Metric(ops / (t.wall_ms / 1e3), "1/s"));
  metrics.Set("cpu_ms_per_op", Metric(t.cpu_ms / ops, "ms"));
  metrics.Set("op_wall_ms_p50", Metric(Median(t.op_ms), "ms"));
  metrics.Set("peak_rss_mb", Metric(PeakRssMb(), "MB"));
  return metrics;
}

/// Per-layer metrics: counts from the first traced episode (they repeat
/// exactly for a seed on the simulated workloads), spans pooled over every
/// traced episode, probes from the first traced episode.
Json PerLayer(const std::vector<const Episode*>& traced,
              const std::vector<const Episode*>& untraced) {
  const Episode& first = *traced.front();
  const double ops = static_cast<double>(first.ops);
  auto counter = [&](const char* name) {
    return Delta(first.counts_before, first.counts_after, "counters", name);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  Json m = Json::MakeObject();
  auto set = [&](const char* name, double value, const char* unit) {
    m.Set(name, Metric(value, unit));
  };

  set("chain.final_height", static_cast<double>(first.final_height), "count");
  set("chain.txs_per_op", counter("mempool.adds") / ops, "count");
  set("chain.blocks_per_op", counter("chain.blocks.accepted") / ops, "count");
  set("chain.validate_per_op", counter("chain.validate.ok") / ops, "count");
  const double gets = counter("sync.gets_executed");
  const double skipped = counter("sync.gets_skipped");
  const double deltas = counter("sync.delta_pushes");
  set("sync.gets_per_op", gets / ops, "count");
  set("sync.gets_skipped_ratio", ratio(skipped, gets + skipped), "ratio");
  set("sync.delta_ratio",
      ratio(deltas, deltas + counter("sync.full_fallbacks")), "ratio");
  set("sync.view_delta_rows_per_op",
      Delta(first.counts_before, first.counts_after, "hist_sum",
            "sync.view_delta_rows") / ops,
      "count");
  set("peer.denied_ratio",
      ratio(counter("peer.updates_denied"), counter("peer.updates_proposed")),
      "ratio");
  set("core.restarts_per_op", static_cast<double>(first.restarts) / ops,
      "count");
  set("wal.appends_per_op", counter("wal.appends") / ops, "count");
  set("wal.bytes_per_op", counter("wal.append_bytes") / ops, "B");
  set("wal.syncs_per_op", counter("wal.syncs") / ops, "count");
  set("net.msgs_per_op", counter("net.sent") / ops, "count");
  set("net.bytes_per_op", counter("net.bytes") / ops, "B");
  set("net.retries_per_op", counter("net.retries") / ops, "count");
  // Protocol latency on the message plane's own clock: simulated seconds on
  // the simulated workloads (deterministic for a seed), the event loop's
  // wall clock on loopback4.
  set("core.protocol_latency_s_p50", Median(first.protocol_s), "plane_s");
  set("core.protocol_latency_s_p90", Percentile(first.protocol_s, 0.9),
      "plane_s");

  const Totals t = Total(traced);
  const double traced_ops = static_cast<double>(t.ops);
  auto per_op = [&](const char* span) {
    return g_spans.Total(span) / traced_ops;
  };
  const double tx = per_op("node_msg.tx");
  const double block = per_op("node_msg.block");
  const double other = per_op("node_msg.other");
  set("runtime.node_msg_ms_per_op", tx + block + other, "ms");
  set("runtime.node_msg_ms_per_op.tx", tx, "ms");
  set("runtime.node_msg_ms_per_op.block", block, "ms");
  set("runtime.node_msg_ms_per_op.other", other, "ms");
  set("runtime.node_tx_msgs_per_op",
      static_cast<double>(first.node_tx_msgs) / ops, "count");
  set("core.initiate_ms", Median(g_spans.Get("initiate")), "ms");
  set("core.settle_ms", Median(g_spans.Get("settle")), "ms");
  set("net.handler_ms_per_op", per_op("handler"), "ms");
  // Plane self time: time inside the benchmark's calls that run the message
  // plane (EventLoop::RunOnce on loopback4; settles and event replays on the
  // simulated workloads) outside every timed handler and timer. The
  // simulator's own timers (seal ticks, retries, catch-up) cannot be
  // wrapped from outside, so there they count as self time.
  set("net.loop_self_ms_per_op", per_op("loop_self"), "ms");

  const double traced_cpu = t.cpu_ms / traced_ops;
  const Totals u = Total(untraced);
  const double untraced_cpu = u.cpu_ms / static_cast<double>(u.ops);
  set("trace.overhead_pct", 100.0 * (traced_cpu / untraced_cpu - 1.0), "%");

  for (const auto& [name, metric] : first.probes.AsObject()) {
    m.Set(name, metric);
  }
  return m;
}

int Usage() {
  std::fprintf(stderr,
               "usage: medsync_bench --workload <rounds32|bigview4k|soak16|"
               "loopback4> --seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--tamper] [--soak-reference]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "medsync_bench: refusing to report timings from a Debug or "
               "sanitizer build (build type %s)\n",
               MEDSYNC_BENCH_BUILD_TYPE);
  return 3;
#endif
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--tamper") {
      config.tamper = true;
    } else if (arg == "--soak-reference") {
      config.soak_reference = true;
    } else {
      return Usage();
    }
  }
  const WorkloadFn run = FindWorkload(config.workload);
  if (run == nullptr || config.seconds <= 0) return Usage();

  // Untraced runs: episodes until the budget is spent. Traced runs: pairs
  // of (untraced, traced) episodes on identical inputs; the untraced half
  // is the reference for trace.overhead_pct.
  std::vector<Episode> episodes;
  std::vector<bool> traced_flags;
  const double start = WallMs();
  uint64_t index = 0;
  Status failure = Status::OK();
  RefKernel();  // warm-up: the first run also grows the heap
  double ref_before = RefKernel();
  double ref_at = WallMs();
  size_t unreferenced = 0;  // the first episode not yet given its ref_ms
  auto take_ref = [&] {
    const double ref_after = RefKernel();
    for (size_t i = unreferenced; i < episodes.size(); ++i) {
      episodes[i].ref_ms = (ref_before + ref_after) / 2;
    }
    unreferenced = episodes.size();
    ref_before = ref_after;
    ref_at = WallMs();
  };
  do {
    const uint64_t seed = EpisodeSeed(config.seed, index++);
    for (bool traced : config.trace ? std::vector<bool>{false, true}
                                    : std::vector<bool>{false}) {
      g_spans.enabled = traced;
      const bool probe = traced && std::find(traced_flags.begin(),
                                             traced_flags.end(),
                                             true) == traced_flags.end();
      Episode ep;
      const size_t tx_msgs = g_spans.Count("node_msg.tx");
      Status s = run(config, seed, probe, &ep);
      g_spans.enabled = false;
      ep.node_tx_msgs = g_spans.Count("node_msg.tx") - tx_msgs;
      if (!s.ok()) {
        failure = s;
        break;
      }
      if (!ep.oracle.ok()) failure = ep.oracle;
      if (ep.ops == 0 && failure.ok()) {
        failure = Status::Internal("an episode completed no op");
      }
      episodes.push_back(std::move(ep));
      traced_flags.push_back(traced);
    }
    if (WallMs() - ref_at >= kRefEveryMs) take_ref();
  } while (failure.ok() && WallMs() - start < config.seconds * 1e3);
  if (unreferenced < episodes.size()) take_ref();

  if (!failure.ok() && episodes.empty()) {
    std::fprintf(stderr, "medsync_bench: %s\n", failure.ToString().c_str());
    return 1;
  }
  std::vector<const Episode*> traced;
  std::vector<const Episode*> untraced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t skipped = 0;
  Json fingerprints = Json::MakeArray();
  Json heights = Json::MakeArray();
  for (size_t i = 0; i < episodes.size(); ++i) {
    (traced_flags[i] ? traced : untraced).push_back(&episodes[i]);
    attempted += episodes[i].attempted;
    failed += episodes[i].failed;
    skipped += episodes[i].skipped;
    fingerprints.Append(episodes[i].fingerprint);
    heights.Append(static_cast<int64_t>(episodes[i].final_height));
  }
  const bool correct = failure.ok() && failed == 0;
  Json metrics = Json::MakeObject();
  if (correct) {
    metrics = config.trace ? PerLayer(traced, untraced)
                           : EndToEnd(Total(untraced));
  }

  const Totals all = Total(untraced);
  const Totals raw = Total(untraced, /*raw=*/true);
  Json detail = Json::MakeObject();
  detail.Set("workload", config.workload);
  detail.Set("seed", static_cast<int64_t>(config.seed));
  detail.Set("episodes", static_cast<int64_t>(episodes.size()));
  detail.Set("skipped_events", static_cast<int64_t>(skipped));
  detail.Set("fingerprints", std::move(fingerprints));
  detail.Set("final_heights", std::move(heights));
  Json episode_cpu = Json::MakeArray();
  for (double v : all.cpu_ms_per_op) episode_cpu.Append(v);
  detail.Set("episode_cpu_ms_per_op", std::move(episode_cpu));
  std::vector<double> refs;
  for (const Episode* ep : untraced) refs.push_back(ep->ref_ms);
  detail.Set("ref_ms_p50", Median(refs));
  if (correct) detail.Set("unscaled", EndToEnd(raw));
  detail.Set("op_samples", static_cast<int64_t>(all.op_ms.size()));
  // A p90 is reported only with at least ten samples beyond it.
  if (all.op_ms.size() >= 100) {
    detail.Set("op_wall_ms_p90", Percentile(all.op_ms, 0.9));
  }
  detail.Set("build_type", MEDSYNC_BENCH_BUILD_TYPE);
  if (!failure.ok()) detail.Set("failure", failure.ToString());

  Json out = Json::MakeObject();
  out.Set("correct", correct);
  out.Set("attempted", static_cast<int64_t>(attempted));
  out.Set("failed", static_cast<int64_t>(failed));
  out.Set("metrics", std::move(metrics));
  out.Set("detail", std::move(detail));
  std::printf("%s\n", out.Dump().c_str());
  if (!correct) {
    std::fprintf(stderr, "medsync_bench: run failed: %s\n",
                 failure.ToString().c_str());
  }
  return correct ? 0 : 1;
}
