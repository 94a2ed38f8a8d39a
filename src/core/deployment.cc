#include "core/deployment.h"

#include <utility>

namespace medsync::core {

Result<Json> QueryEntry(runtime::ChainNode& node,
                        const crypto::Address& contract,
                        const std::string& table_id,
                        const crypto::Address& caller) {
  Json params = Json::MakeObject();
  params.Set("table_id", table_id);
  return node.Query(contract, "get_entry", params, caller);
}

bool AwaitsAcks(const Result<Json>& entry) {
  return entry.ok() && entry->At("pending_acks").size() > 0;
}

Status InstallTable(Peer& peer, const std::string& name,
                    const relational::Table& table) {
  MEDSYNC_RETURN_IF_ERROR(peer.database().CreateTable(name, table.schema()));
  return peer.database().ReplaceTable(name, table);
}

void IntroducePeers(Peer& peer, const std::vector<std::string>& names,
                    const std::vector<crypto::Address>& addresses) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] != peer.name()) peer.AddKnownPeer(names[i], addresses[i]);
  }
}

void SimDeployment::BuildPlane(uint64_t seed, Micros epoch,
                               const net::LatencyModel& latency,
                               size_t worker_threads, size_t node_count,
                               runtime::NodeDaemonOptions node) {
  metrics_ = std::make_unique<metrics::MetricsRegistry>();
  tracer_ = std::make_unique<metrics::ProtocolTracer>(metrics_.get());
  if (worker_threads > 0) {
    pool_ = std::make_unique<threading::ThreadPool>(worker_threads);
  }
  simulator_ = std::make_unique<net::Simulator>(epoch);
  network_ =
      std::make_unique<net::SimNetwork>(simulator_.get(), latency, seed);
  network_->set_metrics(metrics_.get());

  node.authority_count = node_count;
  node.genesis_timestamp = epoch;
  node.node.pool = pool_.get();
  node.node.metrics = metrics_.get();
  for (size_t i = 0; i < node_count; ++i) {
    node.node_index = i;
    nodes_.push_back(std::make_unique<runtime::NodeDaemon>(
        node, simulator_.get(), network_.get()));
  }
  for (auto& daemon : nodes_) daemon->node().Start();
}

std::unique_ptr<Peer> SimDeployment::MakePeer(PeerConfig config,
                                              size_t node_index) {
  auto peer = std::make_unique<Peer>(std::move(config), simulator_.get(),
                                     network_.get(),
                                     &node(node_index % nodes_.size()));
  peer->sync().set_thread_pool(pool_.get());
  // Metrics before any durable storage so its WAL attaches to the registry.
  peer->SetMetrics(metrics_.get());
  peer->SetProtocolTracer(tracer_.get());
  return peer;
}

bool SimDeployment::Quiescent() const {
  for (const auto& daemon : nodes_) {
    if (!daemon->node().mempools_empty()) return false;
  }
  for (const auto& peer : peers_) {
    if (peer != nullptr && peer->HasPendingWork()) return false;
  }
  return true;
}

Status SimDeployment::SettleAll(Micros timeout) {
  const Micros deadline = simulator_->Now() + timeout;
  while (simulator_->Now() < deadline) {
    simulator_->RunFor(node(0).config().block_interval);
    if (!Quiescent()) continue;
    bool acks_clear = true;
    for (const std::string& table_id : table_ids_) {
      if (AwaitsAcks(Entry(table_id))) {
        acks_clear = false;
        break;
      }
    }
    if (acks_clear) return Status::OK();
  }
  return Status::Timeout("deployment did not quiesce in time");
}

Status SimDeployment::FinishBootstrap(double drop_probability) {
  MEDSYNC_RETURN_IF_ERROR(SettleAll());
  for (const std::string& table_id : table_ids_) {
    MEDSYNC_RETURN_IF_ERROR(Entry(table_id).status());
  }
  network_->set_drop_probability(drop_probability);
  return Status::OK();
}

Result<Json> SimDeployment::Entry(const std::string& table_id) {
  return QueryEntry(node(0), contract_, table_id, addresses_[0]);
}

}  // namespace medsync::core
