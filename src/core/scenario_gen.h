#ifndef MEDSYNC_CORE_SCENARIO_GEN_H_
#define MEDSYNC_CORE_SCENARIO_GEN_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_injector.h"
#include "core/deployment.h"
#include "core/peer.h"
#include "net/network.h"

namespace medsync::core {

/// Seeded hospital-network generator (ROADMAP item 5). DescribeNetwork
/// expands a single uint64 seed into a pure, JSON-serializable NetworkSpec
/// — N peers with a provider/researcher/insurer role mix, shared tables
/// with overlapping key ranges over each provider's records, and
/// select∘project∘rename lens chains of configurable depth — and
/// GeneratedScenario materializes that spec into a fully wired simulated
/// deployment (chain nodes, peers, contract, registrations). Everything
/// downstream of the seed is deterministic: same seed, byte-identical
/// world, byte-identical run fingerprint across thread-pool sizes.

/// Stakeholder role of a generated peer. Providers (hospitals) own a slice
/// of the global record space and share fine-grained views of it;
/// researchers and insurers consume those views through their own local
/// sources (the paper's D2-style tables).
enum class PeerRole { kProvider, kResearcher, kInsurer };

std::string_view PeerRoleName(PeerRole role);

/// Knobs of the generator. Everything observable about the generated world
/// derives from `seed` and these sizes.
struct GenOptions {
  uint64_t seed = 1;
  /// Total peers, providers included (min 3: one provider, two consumers).
  size_t peers = 8;
  /// Lens stages per shared table: select, project, then (depth - 2)
  /// rename stages (min 2).
  size_t lens_depth = 3;
  /// Populated records per provider, plus unpopulated key slack so insert
  /// events always have in-range free ids (GetPut-safe inserts).
  size_t rows_per_provider = 6;
  size_t slack_per_provider = 4;
  size_t chain_node_count = 3;
  Micros block_interval = 1 * kMicrosPerSecond;
  size_t max_block_txs = 256;
  /// Chain lanes (shards) per node. Like worker_threads, a pure runtime
  /// knob: the generated world and the lane-invariant fingerprint are
  /// identical at any lane count (sealing uses slot-rotation PoA so block
  /// timing does not depend on lanes). Excluded from NetworkSpec::ToJson.
  size_t lane_count = 1;
  /// 0 = serial; otherwise one shared ThreadPool for nodes and peers.
  size_t worker_threads = 0;
  /// Online BX-law oracle on every peer (SyncManager::set_check_bx_laws).
  bool check_bx_laws = true;
  /// Steady-state message loss (applied after bootstrap, like
  /// ScenarioOptions::drop_probability).
  double drop_probability = 0.0;
  /// Non-empty = the first `durable_peer_count` consumers get snapshot+WAL
  /// databases rooted here and become crash/restart targets.
  std::string durable_root;
  size_t durable_peer_count = 2;
  net::LatencyModel latency;
};

/// One generated peer. Providers carry a contiguous patient-id slice
/// [id_begin, id_begin + populated + slack): the first `populated` ids hold
/// records, the rest are free key space for generated inserts.
struct PeerSpec {
  size_t index = 0;
  std::string name;
  PeerRole role = PeerRole::kProvider;
  bool durable = false;
  size_t trusted_node = 0;
  int64_t id_begin = 0;
  size_t populated = 0;
  size_t slack = 0;
  /// Provider-only: local table holding its full record slice.
  std::string source_table;

  Json ToJson() const;
};

/// One generated shared table between a provider and a consumer: a key
/// range of the provider's slice, a raw-attribute subset, and a lens
/// pipeline select(range) ∘ project(raws) ∘ rename^stages. Both sides run
/// the SAME pipeline — the provider against its full slice, the consumer
/// against a per-table source holding exactly the raw columns — so the
/// registered view definitions agree byte-for-byte.
struct SharedTableSpec {
  std::string table_id;
  size_t provider = 0;  // peer index
  size_t consumer = 0;  // peer index
  /// Inclusive select range on the key; always covers the provider's slack
  /// tail so inserts have room.
  int64_t key_lo = 0;
  int64_t key_hi = 0;
  /// Non-key source attributes flowing into the view, in view order.
  std::vector<std::string> raw_attributes;
  /// Rename stages appended after select+project (lens depth - 2).
  size_t rename_stages = 0;
  std::string provider_view_table;
  std::string consumer_source_table;
  std::string consumer_view_table;
  /// View-attribute names the consumer may write (provider writes all).
  std::vector<std::string> consumer_writable;
  /// Peer index (provider or consumer) allowed to change permissions.
  size_t authority = 0;
  /// A provider-writable view attribute the heal sweep updates to flush
  /// views left needs_refresh by denied cascades.
  std::string sweep_attr;

  /// View-side name of raw attribute `raw` after all rename stages.
  std::string ViewNameOf(const std::string& raw) const;
  /// Non-key view attribute names, in view order.
  std::vector<std::string> ViewAttributes() const;
  /// The lens pipeline (identical on both sides of the table).
  bx::LensPtr MakeLens() const;

  Json ToJson() const;
};

/// The pure network description: canonical JSON bytes are the generator's
/// determinism contract (core_scenario_gen_test compares them).
struct NetworkSpec {
  GenOptions options;
  /// Seed-derived simulated epoch the world starts at — a seed fully
  /// describes the run including every block timestamp.
  Micros epoch = 0;
  std::vector<PeerSpec> peers;
  std::vector<SharedTableSpec> tables;

  std::vector<size_t> TablesOf(size_t peer) const;
  Json ToJson() const;
};

/// Expands a seed into a network description (pure, no side effects).
NetworkSpec DescribeNetwork(const GenOptions& options);

/// Checks the contract invariants every generated spec must satisfy before
/// a run starts: roles consistent, key ranges inside the owning provider's
/// slice with populated rows and insert slack, attributes drawn from the
/// record schema, the provider a writer of every view attribute (cascade
/// liveness), consumer_writable and sweep_attr within the view schema, and
/// the authority one of the two sharing peers.
Status ValidateSpec(const NetworkSpec& spec);

/// A materialized generated network: chain substrate, peers, contract,
/// registered shared tables — plus deterministic adversity controls
/// (crash/restart of durable peers, per-peer isolation) and the run
/// oracles (convergence, audit gaplessness, a byte-exact fingerprint).
///
/// Installs a process-wide FaultInjector for its lifetime (crash events
/// exercise torn-tail WAL recovery through it), so keep at most one
/// GeneratedScenario alive at a time.
class GeneratedScenario : public SimDeployment {
 public:
  static Result<std::unique_ptr<GeneratedScenario>> Create(
      const GenOptions& options);

  ~GeneratedScenario();

  const NetworkSpec& spec() const { return spec_; }
  size_t peer_count() const { return peers_.size(); }
  /// nullptr while the peer is crashed.
  Peer* peer(size_t i) { return peers_[i].get(); }
  bool IsUp(size_t i) const { return peers_[i] != nullptr; }
  /// Stable across crash/restart (derived from the peer's name).
  const crypto::Address& peer_address(size_t i) const {
    return addresses_[i];
  }

  /// Advances simulated time by `duration`.
  void RunFor(Micros duration) { simulator_->RunFor(duration); }

  // -- Adversity controls ---------------------------------------------------

  /// Destroys durable peer `i` (it must be idle — crash with staged
  /// proposals strands content that exists nowhere). With `torn_tail`, a
  /// FaultInjector-torn WAL append is issued first so restart recovery has
  /// to truncate a genuine torn tail.
  Status CrashPeer(size_t i, bool torn_tail);

  /// Recreates peer `i` from its durable directory, re-adopts its shared
  /// tables, and starts chain catch-up.
  Status RestartPeer(size_t i);

  /// Cuts (or heals) every network link of peer `i` — the single-peer
  /// partition. Survives crash/restart of either endpoint.
  void IsolatePeer(size_t i, bool isolated);
  bool IsIsolated(size_t i) const { return isolated_[i]; }

  // -- Oracles --------------------------------------------------------------

  /// SHA-256 over the run-relevant deterministic state: chain heads (every
  /// lane), contract state fingerprints, every live peer's table digests,
  /// simulated time, the metrics snapshot, and the fault-point visit log.
  /// Byte-identical across reruns of a seed and across worker pool sizes
  /// (NOT across lane counts — block hashes carry the lane id).
  std::string Fingerprint() const;

  /// The lane-count-invariant projection of Fingerprint(): simulated time,
  /// per-node contract state fingerprints, per-peer table digests, and the
  /// SORTED fault-point visit log. Chain heads and the metrics snapshot are
  /// excluded (lane counts change block hashes and message accounting but
  /// must not change what the network computed). Byte-identical across
  /// reruns of a seed at ANY lane count and worker pool size, for runs
  /// whose network RNG stream is untouched (zero jitter, zero drops).
  std::string LaneInvariantFingerprint() const;

  /// Every table: both sides up, views byte-equal, versions agreed, no
  /// needs_refresh, no outstanding acks.
  Status VerifyConverged();

  /// Every table: the chain history has no gaps — committed request_update
  /// count equals on-chain version - 1, each answered by a committed ack.
  Status VerifyAuditGapless();

 private:
  GeneratedScenario() = default;

  Status Bootstrap();
  Result<std::unique_ptr<Peer>> MakePeerObject(size_t i);
  /// Peer `i`'s local half of `table` (`i` is its provider or consumer).
  SharedTableConfig SideOf(const SharedTableSpec& table, size_t i,
                           bx::LensPtr lens) const;
  std::string Digest(bool lane_invariant) const;

  NetworkSpec spec_;
  FaultInjector injector_;
  std::vector<bool> isolated_;
};

}  // namespace medsync::core

#endif  // MEDSYNC_CORE_SCENARIO_GEN_H_
