#ifndef MEDSYNC_CORE_SCENARIO_H_
#define MEDSYNC_CORE_SCENARIO_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/deployment.h"
#include "core/peer.h"
#include "relational/table.h"

namespace medsync::core {

/// Which sealing scheme the chain nodes run. PoA models the private chain
/// the paper recommends (Section IV-3); PoW the public-Ethereum deployment
/// it argues against. In PoW mode only node 0 mines (a single-miner
/// private PoW chain, 8 difficulty bits) so block production stays
/// deterministic.
enum class ConsensusMode { kPoa, kPow };

/// Options for the canonical doctor/patient/researcher deployment of the
/// paper's Fig. 1 + Fig. 2.
struct ScenarioOptions {
  uint64_t seed = 42;
  ConsensusMode consensus = ConsensusMode::kPoa;
  /// Block production interval (the paper discusses Ethereum's ~12 s; the
  /// default here keeps tests fast while staying far above network
  /// latency).
  Micros block_interval = 1 * kMicrosPerSecond;
  /// 0 = use the exact two-row data of Fig. 1; otherwise generate this many
  /// synthetic records.
  size_t record_count = 0;
  DependencyStrategy strategy = DependencyStrategy::kAnalyzeChange;
  /// How every peer re-materializes affected views (delta push vs full
  /// lens get). Both modes produce byte-identical database state —
  /// core_determinism_test proves it.
  ViewMaintenance maintenance = ViewMaintenance::kIncremental;
  /// 0 = fully serial (no pool). Otherwise the scenario owns a ThreadPool
  /// of this many workers, shared by every chain node (block validation,
  /// Merkle commitment, PoW sealing) and every peer's sync manager
  /// (cascade rederivation). All pooled paths are deterministic, so runs
  /// are byte-identical across worker counts — core_determinism_test
  /// proves it for 1/2/8.
  size_t worker_threads = 0;
  /// Probability that any message is lost, applied AFTER the bootstrap
  /// settles (deploy/registration run loss-free; the fault-tolerance
  /// machinery then has to carry the actual sharing protocol).
  double drop_probability = 0.0;
};

// ---------------------------------------------------------------------------
// The Fig. 1 clinic, shared by ClinicScenario (one simulated process) and
// ClinicDaemon (one role per process).
// ---------------------------------------------------------------------------

/// Which clinic stakeholder a deployment member plays. Doctor, patient and
/// researcher each trust one chain node (0, 1, 2) and host a Peer; in the
/// multi-process deployment the observer hosts only a fourth chain node (a
/// pure authority, completing the PoA set).
enum class ClinicRole { kDoctor, kPatient, kResearcher, kObserver };

Result<ClinicRole> ParseClinicRole(std::string_view name);
std::string ClinicRoleName(ClinicRole role);

/// The three peer-hosting roles' names (their key seeds) and addresses, in
/// node order. Deriving the addresses constructs the keys, which registers
/// them with the process-local verification registry (crypto/keys.h), so a
/// process that hosts no peer still verifies every peer's transactions.
void ClinicCast(std::vector<std::string>* names,
                std::vector<crypto::Address>* addresses);

/// Where the doctor's first transaction deploys the metadata contract
/// (doctor's address, nonce 0). Every member derives it instead of hearing
/// it from the doctor: the chain itself is the only rendezvous.
crypto::Address ClinicContractAddress();

/// Fig. 1's local sources — D1 (patient), D2 (researcher), D3 (doctor) —
/// and the agreed initial contents of the two shared tables, projected
/// from the full records.
struct ClinicData {
  relational::Table d1;
  relational::Table d2;
  relational::Table d3;
  relational::Table d13;  // "D13&D31": a0, a1, a2, a4
  relational::Table d32;  // "D23&D32": a1, a5
};
Result<ClinicData> ProjectClinicData(const relational::Table& full);

/// Introduces `peer` to the other stakeholders, installs `role`'s Fig. 1
/// source and initial shared views, and adopts its shared tables (the two
/// project lenses) under ClinicContractAddress(). The doctor then deploys
/// the contract (its first transaction) and registers both tables with the
/// Fig. 3 permission matrix. Returns the adopted configs; none for the
/// observer.
Result<std::vector<SharedTableConfig>> SetupClinicPeer(Peer& peer,
                                                       ClinicRole role,
                                                       const ClinicData& data);

/// The two scripted Fig. 5 updates: the researcher sets Ibuprofen's
/// MechanismOfAction to "MeA1-new" in its source D2 (steps 1-6); then the
/// doctor sets patient 188's Dosage to "one tablet every 6h" in D13&D31
/// (steps 7-11).
Status Fig5ResearcherUpdate(Peer& researcher);
Status Fig5DoctorUpdate(Peer& doctor);

/// The fully wired three-stakeholder deployment:
///  * three PoA chain nodes running the metadata contract;
///  * Doctor (source D3), Patient (source D1), Researcher (source D2),
///    each holding its attribute subset of the same full records;
///  * shared tables "D13&D31" (patient<->doctor, attributes a0,a1,a2,a4)
///    and "D23&D32" (doctor<->researcher, attributes a1,a5), with the
///    write-permission matrix of Fig. 3;
///  * the metadata contract deployed and both tables registered on-chain.
///
/// After Create() returns, the chain has already sealed the deployment and
/// registration transactions and all peers are synced and idle.
class ClinicScenario : public SimDeployment {
 public:
  static Result<std::unique_ptr<ClinicScenario>> Create(
      const ScenarioOptions& options);

  Peer& doctor() { return *peers_[0]; }
  Peer& patient() { return *peers_[1]; }
  Peer& researcher() { return *peers_[2]; }

  /// Shared table ids.
  static constexpr char kPatientDoctorTable[] = "D13&D31";
  static constexpr char kDoctorResearcherTable[] = "D23&D32";

 private:
  ClinicScenario() = default;
};

}  // namespace medsync::core

#endif  // MEDSYNC_CORE_SCENARIO_H_
