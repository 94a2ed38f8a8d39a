#ifndef MEDSYNC_CORE_DEPLOYMENT_H_
#define MEDSYNC_CORE_DEPLOYMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics/protocol_tracer.h"
#include "common/threading/thread_pool.h"
#include "core/peer.h"
#include "net/network.h"
#include "net/simulator.h"
#include "runtime/daemon.h"

namespace medsync::core {

// What every deployment shares, whether it runs in one simulated process
// (ClinicScenario, GeneratedScenario) or one role per process
// (ClinicDaemon). Chain nodes come from runtime::NodeDaemon; each peer is
// described only by its local sources and the views it shares.

/// The contract's metadata entry for `table_id` as `node` has executed it
/// (read-only get_entry by `caller`); !ok while the table is unregistered.
Result<Json> QueryEntry(runtime::ChainNode& node,
                        const crypto::Address& contract,
                        const std::string& table_id,
                        const crypto::Address& caller);

/// Whether a QueryEntry result still waits for acks (an entry that is not
/// on-chain yet waits for nothing).
bool AwaitsAcks(const Result<Json>& entry);

/// Creates table `name` in `peer`'s database holding `table`.
Status InstallTable(Peer& peer, const std::string& name,
                    const relational::Table& table);

/// Introduces `peer` to every other peer of a deployment (`names` are the
/// key seeds behind `addresses`).
void IntroducePeers(Peer& peer, const std::vector<std::string>& names,
                    const std::vector<crypto::Address>& addresses);

/// An in-process deployment on the discrete-event simulator: one metrics
/// registry and protocol tracer, an optional thread pool shared by every
/// node and peer, the simulated network, chain nodes, peers and contract.
class SimDeployment {
 public:
  SimDeployment(const SimDeployment&) = delete;
  SimDeployment& operator=(const SimDeployment&) = delete;

  net::Simulator& simulator() { return *simulator_; }
  net::SimNetwork& network() { return *network_; }
  runtime::ChainNode& node(size_t i) { return nodes_[i]->node(); }
  size_t node_count() const { return nodes_.size(); }
  const crypto::Address& contract() const { return contract_; }

  /// The registry every component (network, nodes, sealers, peers, WALs)
  /// reports into, and the structured Fig. 4/5 step trace.
  metrics::MetricsRegistry& metrics() { return *metrics_; }
  metrics::ProtocolTracer& tracer() { return *tracer_; }
  /// Canonical JSON snapshot of every counter/gauge/histogram; byte-identical
  /// across worker_threads settings under the sim clock.
  Json MetricsSnapshot() const { return metrics_->Snapshot(); }

  /// Runs a block interval at a time until every mempool is empty, every
  /// live peer is idle, and no shared table has outstanding acks (crashed
  /// peers keep acks outstanding), or until `timeout` passes (Timeout).
  Status SettleAll(Micros timeout = 600 * kMicrosPerSecond);

  /// The contract's metadata entry for `table_id` (via node 0).
  Result<Json> Entry(const std::string& table_id);

 protected:
  SimDeployment() = default;
  ~SimDeployment() = default;

  /// Builds the registry, tracer, pool (if `worker_threads` > 0), the
  /// simulator and network, and `node_count` started chain nodes with
  /// genesis at `epoch`. `node` says how they seal, block and lane.
  void BuildPlane(uint64_t seed, Micros epoch, const net::LatencyModel& latency,
                  size_t worker_threads, size_t node_count,
                  runtime::NodeDaemonOptions node);

  /// A peer trusting node `node_index % node_count()`, reporting into the
  /// shared pool, registry and tracer. Not started.
  std::unique_ptr<Peer> MakePeer(PeerConfig config, size_t node_index);

  /// Settles the bootstrap transactions, checks every table is on-chain,
  /// then turns on the steady-state message loss.
  Status FinishBootstrap(double drop_probability);

  // Declared before the components that borrow them, so they outlive them.
  std::unique_ptr<metrics::MetricsRegistry> metrics_;
  std::unique_ptr<metrics::ProtocolTracer> tracer_;
  std::unique_ptr<threading::ThreadPool> pool_;
  std::unique_ptr<net::Simulator> simulator_;
  std::unique_ptr<net::SimNetwork> network_;
  std::vector<std::unique_ptr<runtime::NodeDaemon>> nodes_;
  std::vector<std::unique_ptr<Peer>> peers_;  // null while crashed
  std::vector<std::string> names_;            // peer key seeds
  std::vector<crypto::Address> addresses_;    // stable across restarts
  std::vector<std::string> table_ids_;        // what SettleAll waits on
  crypto::Address contract_;

 private:
  bool Quiescent() const;
};

}  // namespace medsync::core

#endif  // MEDSYNC_CORE_DEPLOYMENT_H_
