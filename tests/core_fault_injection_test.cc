// End-to-end crash recovery of a durable sharing peer under injected
// faults: the process dies at a named kill-point mid-protocol (between WAL
// append and in-memory apply, or mid-checkpoint), reboots from its
// directory, and the periodic catch-up reconciliation — not any manual
// intervention — completes the interrupted Fig. 4/5 round.

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "bx/lens_factory.h"
#include "common/fault_injector.h"
#include "common/strings.h"
#include "core/peer.h"
#include "core/scenario.h"
#include "medical/records.h"

namespace medsync::core {
namespace {

namespace fs = std::filesystem;
using medical::kDosage;
using medical::kMedicationName;
using medical::kPatientId;
using relational::Table;
using relational::Value;

class PeerFaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            StrCat("medsync_peerfault_", ::getpid(), "_", counter_++))
               .string();
    ScenarioOptions options;
    Result<std::unique_ptr<ClinicScenario>> scenario =
        ClinicScenario::Create(options);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    clinic_ = std::move(*scenario);
    FaultInjector::Install(&injector_);
  }

  void TearDown() override {
    FaultInjector::Install(nullptr);
    archivist_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Starts (or restarts) the durable "archivist" peer against node 2. The
  /// periodic catch-up (every 3 s of simulated time) is what heals the
  /// post-crash gap.
  void BootArchivist() {
    PeerConfig config;
    config.name = "archivist";
    archivist_ = std::make_unique<Peer>(config, &clinic_->simulator(),
                                        &clinic_->network(),
                                        &clinic_->node(2));
    ASSERT_TRUE(archivist_->UseDurableStorage(dir_).ok());
    archivist_->Start();
    archivist_->AddKnownPeer("doctor", clinic_->doctor().address());
    clinic_->doctor().AddKnownPeer("archivist", archivist_->address());
  }

  bx::LensPtr ShareLens() {
    return bx::MakeProjectLens({kPatientId, kMedicationName, kDosage},
                               {kPatientId});
  }

  /// Doctor->archivist bootstrap for shared table "ARCH".
  void EstablishSharing() {
    if (!clinic_->doctor().database().HasTable("ARCH_view")) {
      Table d3 = *clinic_->doctor().database().Snapshot("D3");
      Table view = *ShareLens()->Get(d3);
      ASSERT_TRUE(clinic_->doctor()
                      .database()
                      .CreateTable("ARCH_view", view.schema())
                      .ok());
      ASSERT_TRUE(
          clinic_->doctor().database().ReplaceTable("ARCH_view", view).ok());
    }
    relational::Schema source_schema = *relational::Schema::Create(
        {{std::string(kPatientId), relational::DataType::kInt, false},
         {std::string(kMedicationName), relational::DataType::kString, true},
         {std::string(kDosage), relational::DataType::kString, true}},
        {std::string(kPatientId)});
    ASSERT_TRUE(
        archivist_->database().CreateTable("ARCHIVE", source_schema).ok());
    archivist_->SetOfferPolicy(
        [this](const Peer::ShareOffer&) -> Result<Peer::ShareAcceptance> {
          Peer::ShareAcceptance acceptance;
          acceptance.source_table = "ARCHIVE";
          acceptance.view_table = "ARCH";
          acceptance.lens = ShareLens();
          return acceptance;
        });

    Peer::OfferParams params;
    params.table_id = "ARCH";
    params.source_table = "D3";
    params.view_table = "ARCH_view";
    params.lens = ShareLens();
    params.contract = clinic_->contract();
    params.write_permission = {
        {kMedicationName, {clinic_->doctor().address()}},
        {kDosage, {clinic_->doctor().address()}}};
    params.membership = {clinic_->doctor().address()};
    params.authority = clinic_->doctor().address();
    ASSERT_TRUE(
        clinic_->doctor().OfferSharedTable("archivist", params).ok());
    ASSERT_TRUE(clinic_->SettleAll().ok());
    clinic_->simulator().RunFor(3 * kMicrosPerSecond);
    ASSERT_EQ(archivist_->GetSyncState("ARCH")->version, 1u);
  }

  SharedTableConfig ArchivistConfig() {
    return SharedTableConfig{"ARCH", "ARCHIVE", "ARCH", ShareLens(),
                             clinic_->contract()};
  }

  Json ArchEntry() {
    Json params = Json::MakeObject();
    params.Set("table_id", "ARCH");
    return *clinic_->node(0).Query(clinic_->contract(), "get_entry", params,
                                   clinic_->doctor().address());
  }

  static inline int counter_ = 0;
  std::string dir_;
  std::unique_ptr<ClinicScenario> clinic_;
  std::unique_ptr<Peer> archivist_;
  FaultInjector injector_;
};

TEST_F(PeerFaultInjectionTest, CrashDuringFetchedUpdateApplyHealsViaCatchUp) {
  BootArchivist();
  EstablishSharing();

  // The archivist's NEXT durable write dies after the WAL append but
  // before the in-memory apply — i.e. the process is killed in the middle
  // of applying the doctor's fetched update.
  injector_.Kill("wal.append.after_write");
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute("ARCH", {Value::Int(188)}, kDosage,
                                         Value::String("crashed apply"))
                  .ok());
  // Run only until the kill-point fires, then destroy the peer — the
  // process died right there. (Left alive, its own catch-up timer would
  // self-heal without any restart; that path is covered above.)
  for (int i = 0; i < 100 && injector_.faults_fired() == 0; ++i) {
    clinic_->simulator().RunFor(100 * kMicrosPerMilli);
  }
  ASSERT_EQ(injector_.faults_fired(), 1u);
  archivist_.reset();
  clinic_->simulator().RunFor(2 * kMicrosPerSecond);
  // The round is stuck: the archivist never acked.
  EXPECT_EQ(ArchEntry().At("pending_acks").size(), 1u);
  BootArchivist();
  ASSERT_TRUE(archivist_->AdoptSharedTable(ArchivistConfig()).ok());

  // No manual SyncWithChain: the periodic catch-up finds the stale table,
  // refetches, applies, and acks — closing the round.
  clinic_->simulator().RunFor(15 * kMicrosPerSecond);
  EXPECT_EQ(archivist_->GetSyncState("ARCH")->version, 2u);
  EXPECT_EQ(archivist_->ReadSharedTable("ARCH")
                ->Get({Value::Int(188)})
                ->at(2)
                .AsString(),
            "crashed apply");
  EXPECT_EQ(ArchEntry().At("pending_acks").size(), 0u);
}

TEST_F(PeerFaultInjectionTest, CrashMidCheckpointRecoversAndResumesProtocol) {
  BootArchivist();
  EstablishSharing();

  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute("ARCH", {Value::Int(188)}, kDosage,
                                         Value::String("pre-checkpoint"))
                  .ok());
  ASSERT_TRUE(clinic_->SettleAll().ok());
  clinic_->simulator().RunFor(4 * kMicrosPerSecond);
  ASSERT_EQ(archivist_->GetSyncState("ARCH")->version, 2u);
  Table before = *archivist_->database().Snapshot("ARCHIVE");

  // Killed in the checkpoint crash window: the new snapshot is published
  // but the WAL was never truncated.
  injector_.Kill("db.checkpoint.before_wal_reset");
  EXPECT_TRUE(archivist_->database().Checkpoint().IsUnavailable());
  archivist_.reset();

  // Reboot: recovery must NOT double-apply the WAL onto the new snapshot.
  BootArchivist();
  ASSERT_TRUE(archivist_->AdoptSharedTable(ArchivistConfig()).ok());
  EXPECT_EQ(*archivist_->database().Snapshot("ARCHIVE"), before);
  EXPECT_EQ(archivist_->GetSyncState("ARCH")->version, 2u);

  // And the peer is fully back in the protocol: a fresh round completes.
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute("ARCH", {Value::Int(188)}, kDosage,
                                         Value::String("post-recovery"))
                  .ok());
  ASSERT_TRUE(clinic_->SettleAll().ok());
  clinic_->simulator().RunFor(6 * kMicrosPerSecond);
  EXPECT_EQ(archivist_->GetSyncState("ARCH")->version, 3u);
  EXPECT_EQ(ArchEntry().At("pending_acks").size(), 0u);
}

TEST_F(PeerFaultInjectionTest, RepeatedCrashesConvergeToTheSameBytes) {
  // Two crashes in one lifetime — one mid-apply, one mid-checkpoint — and
  // the peer still converges to exactly the doctor's view of the shared
  // data. Fault tolerance composes.
  BootArchivist();
  EstablishSharing();

  injector_.Kill("wal.append.after_write");
  ASSERT_TRUE(clinic_->doctor()
                  .UpdateSharedAttribute("ARCH", {Value::Int(189)},
                                         kMedicationName,
                                         Value::String("Renamed-A"))
                  .ok());
  for (int i = 0; i < 100 && injector_.faults_fired() == 0; ++i) {
    clinic_->simulator().RunFor(100 * kMicrosPerMilli);
  }
  ASSERT_EQ(injector_.faults_fired(), 1u);
  archivist_.reset();  // crash 1

  BootArchivist();
  ASSERT_TRUE(archivist_->AdoptSharedTable(ArchivistConfig()).ok());
  clinic_->simulator().RunFor(15 * kMicrosPerSecond);
  ASSERT_EQ(archivist_->GetSyncState("ARCH")->version, 2u);

  injector_.Kill("db.checkpoint.before_wal_reset");
  EXPECT_TRUE(archivist_->database().Checkpoint().IsUnavailable());
  archivist_.reset();  // crash 2

  BootArchivist();
  ASSERT_TRUE(archivist_->AdoptSharedTable(ArchivistConfig()).ok());
  clinic_->simulator().RunFor(6 * kMicrosPerSecond);

  // Byte-identical convergence with the authoritative copy.
  EXPECT_EQ(*archivist_->ReadSharedTable("ARCH"),
            *clinic_->doctor().database().Snapshot("ARCH_view"));
  EXPECT_EQ(ArchEntry().At("pending_acks").size(), 0u);
}

}  // namespace
}  // namespace medsync::core
