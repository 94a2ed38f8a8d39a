#include "runtime/daemon.h"

#include "chain/blockchain.h"
#include "chain/sealer.h"
#include "common/strings.h"
#include "contracts/metadata_contract.h"

namespace medsync::runtime {

namespace {
/// Simulation-scale proof of work: ms-scale sealing on one core.
constexpr uint32_t kPowDifficultyBits = 8;
}  // namespace

std::string NodeDaemon::NodeIdFor(size_t index) {
  return StrCat("chain-node-", index);
}

NodeDaemon::NodeDaemon(NodeDaemonOptions options, net::Scheduler* scheduler,
                       net::Network* network) {
  NodeConfig& config = options.node;
  config.id = NodeIdFor(options.node_index);
  config.sealing_enabled =
      options.sealing != Sealing::kPow || options.node_index == 0;

  std::shared_ptr<const chain::Sealer> sealer;
  if (options.sealing == Sealing::kPow) {
    auto pow = std::make_shared<chain::PowSealer>(kPowDifficultyBits,
                                                  config.pool);
    pow->set_metrics(config.metrics);
    sealer = std::move(pow);
  } else {
    auto authority = [](size_t i) {
      return crypto::KeyPair::FromSeed(StrCat("authority-", i));
    };
    std::vector<crypto::Address> authorities;
    for (size_t i = 0; i < options.authority_count; ++i) {
      authorities.push_back(authority(i).address());
    }
    sealer = std::make_shared<chain::PoaSealer>(
        std::move(authorities),
        std::make_shared<crypto::KeyPair>(authority(options.node_index)),
        options.sealing == Sealing::kPoaSlot ? config.block_interval : 0);
  }

  auto host = std::make_unique<contracts::ContractHost>();
  host->RegisterType("metadata", contracts::MetadataContract::Create);

  node_ = std::make_unique<ChainNode>(
      std::move(config), scheduler, network, std::move(sealer),
      chain::Blockchain::MakeGenesis(options.genesis_timestamp),
      contracts::SharedDataConflictKey, std::move(host));
}

}  // namespace medsync::runtime
