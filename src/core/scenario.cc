#include "core/scenario.h"

#include <utility>

#include "bx/lens_factory.h"
#include "chain/transaction.h"
#include "common/strings.h"
#include "contracts/host.h"
#include "medical/generator.h"
#include "medical/records.h"
#include "relational/query.h"

namespace medsync::core {

using medical::kAddress;
using medical::kClinicalData;
using medical::kDosage;
using medical::kMechanismOfAction;
using medical::kMedicationName;
using medical::kModeOfAction;
using medical::kPatientId;
using relational::Table;
using relational::Value;

namespace {

constexpr const char* kRoleNames[] = {"doctor", "patient", "researcher",
                                      "observer"};

/// The in-process clinic runs one chain node per peer-hosting role.
constexpr size_t kClinicNodeCount = 3;

}  // namespace

Result<ClinicRole> ParseClinicRole(std::string_view name) {
  for (size_t i = 0; i < 4; ++i) {
    if (name == kRoleNames[i]) return static_cast<ClinicRole>(i);
  }
  return Status::InvalidArgument(StrCat("unknown clinic role '", name, "'"));
}

std::string ClinicRoleName(ClinicRole role) {
  return kRoleNames[static_cast<size_t>(role)];
}

void ClinicCast(std::vector<std::string>* names,
                std::vector<crypto::Address>* addresses) {
  for (ClinicRole role :
       {ClinicRole::kDoctor, ClinicRole::kPatient, ClinicRole::kResearcher}) {
    names->push_back(ClinicRoleName(role));
    addresses->push_back(crypto::KeyPair::FromSeed(names->back()).address());
  }
}

crypto::Address ClinicContractAddress() {
  chain::Transaction deploy;
  deploy.from = crypto::KeyPair::FromSeed("doctor").address();
  deploy.nonce = 0;
  return contracts::ContractHost::DeploymentAddress(deploy);
}

Result<ClinicData> ProjectClinicData(const Table& full) {
  ClinicData data;
  MEDSYNC_ASSIGN_OR_RETURN(
      data.d1, relational::Project(full,
                                   {kPatientId, kMedicationName, kClinicalData,
                                    kAddress, kDosage},
                                   {kPatientId}));
  MEDSYNC_ASSIGN_OR_RETURN(
      data.d2,
      relational::Project(full,
                          {kMedicationName, kMechanismOfAction, kModeOfAction},
                          {kMedicationName}));
  MEDSYNC_ASSIGN_OR_RETURN(
      data.d3, relational::Project(full,
                                   {kPatientId, kMedicationName, kClinicalData,
                                    kMechanismOfAction, kDosage},
                                   {kPatientId}));
  MEDSYNC_ASSIGN_OR_RETURN(
      data.d13,
      relational::Project(
          data.d1, {kPatientId, kMedicationName, kClinicalData, kDosage},
          {kPatientId}));
  MEDSYNC_ASSIGN_OR_RETURN(
      data.d32,
      relational::Project(data.d3, {kMedicationName, kMechanismOfAction},
                          {kMedicationName}));
  return data;
}

namespace {

/// The doctor's bootstrap transactions: the contract deploy, then both
/// registrations with the Fig. 3 permission matrix.
Status DeployClinicContract(Peer& doctor,
                            const std::vector<SharedTableConfig>& shared,
                            const std::vector<crypto::Address>& cast) {
  MEDSYNC_ASSIGN_OR_RETURN(crypto::Address deployed,
                           doctor.DeployMetadataContract());
  if (deployed.ToHex() != shared[0].contract.ToHex()) {
    return Status::Internal(
        StrCat("deployed contract address ", deployed.ToHex(), " != derived ",
               shared[0].contract.ToHex(),
               " (deploy must be the doctor's first transaction)"));
  }
  const crypto::Address& d = cast[0];
  const crypto::Address& p = cast[1];
  const crypto::Address& r = cast[2];
  // Fig. 3 permission matrix:
  //   D13&D31 — medication name & dosage writable by Doctor; clinical data
  //             by Patient and Doctor; authority Doctor.
  //   D23&D32 — medication name writable by Doctor and Researcher;
  //             mechanism of action by Researcher; authority Researcher.
  MEDSYNC_RETURN_IF_ERROR(doctor
                              .RegisterSharedTableOnChain(
                                  shared[0], {p, d},
                                  {{kMedicationName, {d}},
                                   {kDosage, {d}},
                                   {kClinicalData, {p, d}}},
                                  {d}, d)
                              .status());
  return doctor
      .RegisterSharedTableOnChain(shared[1], {d, r},
                                  {{kMedicationName, {d, r}},
                                   {kMechanismOfAction, {r}}},
                                  {d}, r)
      .status();
}

}  // namespace

Result<std::vector<SharedTableConfig>> SetupClinicPeer(Peer& peer,
                                                       ClinicRole role,
                                                       const ClinicData& data) {
  const bx::LensPtr lens_pd = bx::MakeProjectLens(
      {kPatientId, kMedicationName, kClinicalData, kDosage}, {kPatientId});
  const bx::LensPtr lens_dr = bx::MakeProjectLens(
      {kMedicationName, kMechanismOfAction}, {kMedicationName});
  constexpr const char* kPD = ClinicScenario::kPatientDoctorTable;
  constexpr const char* kDR = ClinicScenario::kDoctorResearcherTable;
  const crypto::Address contract = ClinicContractAddress();
  std::vector<std::string> names;
  std::vector<crypto::Address> addresses;
  ClinicCast(&names, &addresses);
  IntroducePeers(peer, names, addresses);

  // (local table, initial content) pairs, sources first.
  std::vector<std::pair<const char*, const Table*>> tables;
  std::vector<SharedTableConfig> shared;
  switch (role) {
    case ClinicRole::kDoctor:
      tables = {{"D3", &data.d3}, {"D31", &data.d13}, {"D32", &data.d32}};
      shared = {{kPD, "D3", "D31", lens_pd, contract},
                {kDR, "D3", "D32", lens_dr, contract}};
      break;
    case ClinicRole::kPatient:
      tables = {{"D1", &data.d1}, {"D13", &data.d13}};
      shared = {{kPD, "D1", "D13", lens_pd, contract}};
      break;
    case ClinicRole::kResearcher:
      tables = {{"D2", &data.d2}, {"D23", &data.d32}};
      shared = {{kDR, "D2", "D23", lens_dr, contract}};
      break;
    case ClinicRole::kObserver:
      break;
  }
  for (const auto& [name, table] : tables) {
    MEDSYNC_RETURN_IF_ERROR(InstallTable(peer, name, *table));
  }
  for (const SharedTableConfig& config : shared) {
    MEDSYNC_RETURN_IF_ERROR(peer.AdoptSharedTable(config));
  }
  if (role == ClinicRole::kDoctor) {
    MEDSYNC_RETURN_IF_ERROR(DeployClinicContract(peer, shared, addresses));
  }
  return shared;
}

Status Fig5ResearcherUpdate(Peer& researcher) {
  return researcher.UpdateSourceAndPropagate(
      "D2", [](relational::Database* db) {
        return db->UpdateAttribute("D2", {Value::String("Ibuprofen")},
                                   kMechanismOfAction,
                                   Value::String("MeA1-new"));
      });
}

Status Fig5DoctorUpdate(Peer& doctor) {
  return doctor.UpdateSharedAttribute(ClinicScenario::kPatientDoctorTable,
                                      {Value::Int(188)}, kDosage,
                                      Value::String("one tablet every 6h"));
}

Result<std::unique_ptr<ClinicScenario>> ClinicScenario::Create(
    const ScenarioOptions& options) {
  auto scenario = std::unique_ptr<ClinicScenario>(new ClinicScenario());
  runtime::NodeDaemonOptions node;
  node.sealing = options.consensus == ConsensusMode::kPoa
                     ? runtime::Sealing::kPoaHeight
                     : runtime::Sealing::kPow;
  node.node.block_interval = options.block_interval;
  scenario->BuildPlane(options.seed, SimClock::kDefaultEpoch,
                       net::LatencyModel(), options.worker_threads,
                       kClinicNodeCount, std::move(node));
  scenario->table_ids_ = {kPatientDoctorTable, kDoctorResearcherTable};
  scenario->contract_ = ClinicContractAddress();

  // --- Peers: doctor, patient, researcher on nodes 0, 1, 2. ----------------
  ClinicCast(&scenario->names_, &scenario->addresses_);
  for (size_t i = 0; i < scenario->names_.size(); ++i) {
    scenario->peers_.push_back(
        scenario->MakePeer({.name = scenario->names_[i],
                            .strategy = options.strategy,
                            .maintenance = options.maintenance},
                           i));
    scenario->peers_.back()->Start();
  }

  // --- Local data (Fig. 1 distribution), projected once for all roles. -----
  MEDSYNC_ASSIGN_OR_RETURN(
      ClinicData data,
      ProjectClinicData(options.record_count == 0
                            ? medical::MakeFig1FullRecords()
                            : medical::GenerateFullRecords(
                                  {options.seed, options.record_count, 1000})));
  for (size_t i = 0; i < scenario->peers_.size(); ++i) {
    MEDSYNC_RETURN_IF_ERROR(SetupClinicPeer(*scenario->peers_[i],
                                            static_cast<ClinicRole>(i), data)
                                .status());
  }
  MEDSYNC_RETURN_IF_ERROR(
      scenario->FinishBootstrap(options.drop_probability));
  return scenario;
}

}  // namespace medsync::core
