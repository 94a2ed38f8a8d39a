#ifndef MEDSYNC_RUNTIME_DAEMON_H_
#define MEDSYNC_RUNTIME_DAEMON_H_

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "crypto/keys.h"
#include "net/network.h"
#include "net/scheduler.h"
#include "runtime/chain_node.h"

namespace medsync::runtime {

/// How a deployment's chain nodes seal; all its nodes must agree.
enum class Sealing {
  /// PoA rotating by block height: only the rightful authority's seal
  /// validates at each height, so processes with unsynchronized seal ticks
  /// cannot fork the chain.
  kPoaHeight,
  /// PoA rotating by time slot (one block interval): which node seals is a
  /// function of time alone, so block timing is lane-count invariant.
  kPoaSlot,
  /// Proof of work (8 leading zero bits) with node 0 the only miner, so
  /// production stays deterministic: the public-chain setting the paper
  /// argues against.
  kPow,
};

/// Options for hosting one ChainNode of a deployment. All nodes of a
/// deployment agree on everything but `node_index`. Identities are
/// deterministic (authority-i key seeds), so processes bootstrap
/// independently: the socket transport's route map is the only shared
/// configuration.
struct NodeDaemonOptions {
  /// This node's index in the authority set (node id "chain-node-<i>").
  size_t node_index = 0;
  size_t authority_count = 4;
  /// The default SimClock epoch keeps sim and socket deployments
  /// genesis-compatible.
  Micros genesis_timestamp = SimClock::kDefaultEpoch;
  Sealing sealing = Sealing::kPoaHeight;
  /// Block interval and size, lanes, pool and metrics of the hosted node;
  /// `id` and `sealing_enabled` are derived from the fields above.
  NodeConfig node;
};

/// Hosts one ChainNode over any execution plane (Simulator for tests,
/// EventLoop + SocketTransport for deployment): the one place a deployment's
/// chain node is built — authority key, genesis, sealer and the
/// metadata-contract host. Role-playing peers layer on top in core.
class NodeDaemon {
 public:
  NodeDaemon(NodeDaemonOptions options, net::Scheduler* scheduler,
             net::Network* network);

  NodeDaemon(const NodeDaemon&) = delete;
  NodeDaemon& operator=(const NodeDaemon&) = delete;

  ChainNode& node() { return *node_; }

  static std::string NodeIdFor(size_t index);

 private:
  std::unique_ptr<ChainNode> node_;
};

}  // namespace medsync::runtime

#endif  // MEDSYNC_RUNTIME_DAEMON_H_
