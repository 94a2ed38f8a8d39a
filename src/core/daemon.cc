#include "core/daemon.h"

#include <utility>

#include "common/strings.h"
#include "core/audit.h"
#include "core/deployment.h"
#include "medical/records.h"

namespace medsync::core {

using relational::Table;

namespace {

/// Every role's chain node is one authority of four.
constexpr size_t kDaemonNodeCount = 4;

}  // namespace

size_t ClinicDaemon::NodeIndexFor(ClinicRole role) {
  return static_cast<size_t>(role);
}

std::vector<std::string> ClinicDaemon::LocalIds(ClinicRole role) {
  std::vector<std::string> ids{
      runtime::NodeDaemon::NodeIdFor(NodeIndexFor(role))};
  if (role != ClinicRole::kObserver) ids.push_back(ClinicRoleName(role));
  return ids;
}

ClinicDaemon::ClinicDaemon(const ClinicDaemonOptions& options,
                           net::Scheduler* scheduler, net::Network* network)
    : options_(options),
      metrics_(std::make_unique<metrics::MetricsRegistry>()),
      scheduler_(scheduler) {
  runtime::NodeDaemonOptions node;
  node.node_index = NodeIndexFor(options_.role);
  node.authority_count = kDaemonNodeCount;
  node.node.block_interval = options_.block_interval;
  node.node.metrics = metrics_.get();
  node_daemon_ = std::make_unique<runtime::NodeDaemon>(std::move(node),
                                                       scheduler, network);

  // Every process, the observer included, materializes the whole cast: the
  // symmetric test crypto verifies signatures through a process-local key
  // registry that fills in as keys are constructed.
  ClinicCast(&names_, &addresses_);

  if (options_.role != ClinicRole::kObserver) {
    peer_ = std::make_unique<Peer>(
        PeerConfig{.name = ClinicRoleName(options_.role)}, scheduler, network,
        &node_daemon_->node());
    peer_->SetMetrics(metrics_.get());
  }
}

ClinicDaemon::~ClinicDaemon() { *alive_ = false; }

Result<std::unique_ptr<ClinicDaemon>> ClinicDaemon::Create(
    const ClinicDaemonOptions& options, net::Scheduler* scheduler,
    net::Network* network) {
  return std::unique_ptr<ClinicDaemon>(
      new ClinicDaemon(options, scheduler, network));
}

void ClinicDaemon::Start() {
  if (started_) return;
  started_ = true;
  started_at_ = scheduler_->Now();
  node_daemon_->node().Start();
  if (peer_ != nullptr) {
    peer_->Start();
    if (Status status = SetupRoleData(); !status.ok()) {
      Fail(std::move(status));
      return;
    }
  }
  ScheduleTick();
}

Status ClinicDaemon::SetupRoleData() {
  // The Fig. 1 distribution, projected identically in every process so the
  // agreed initial shared contents line up without any data exchange.
  MEDSYNC_ASSIGN_OR_RETURN(ClinicData data,
                           ProjectClinicData(medical::MakeFig1FullRecords()));
  MEDSYNC_ASSIGN_OR_RETURN(shared_,
                           SetupClinicPeer(*peer_, options_.role, data));
  return Status::OK();
}

void ClinicDaemon::ScheduleTick() {
  scheduler_->Schedule(options_.tick_interval, [this, alive = alive_] {
    if (!*alive) return;
    Tick();
  });
}

void ClinicDaemon::Tick() {
  if (converged_ || failed()) return;
  if (scheduler_->Now() - started_at_ >= options_.timeout) {
    Fail(Status::Timeout(StrCat(ClinicRoleName(options_.role),
                                " did not converge within timeout")));
    return;
  }

  if (update_pending_) {
    // The researcher (Fig. 5 steps 1-6) updates once the registration is
    // visible on its own node; the doctor (steps 7-11) once the
    // researcher's update has committed AND this peer has applied + acked
    // it (no fetch in flight), so the two cascades never interleave.
    const bool ready =
        options_.role == ClinicRole::kResearcher
            ? EntrySettledAt(ClinicScenario::kDoctorResearcherTable, 1)
            : EntrySettledAt(ClinicScenario::kDoctorResearcherTable, 2) &&
                  !peer_->HasPendingWork();
    if (ready) {
      update_pending_ = false;
      acted_at_ = scheduler_->Now();
      Status status = options_.role == ClinicRole::kResearcher
                          ? Fig5ResearcherUpdate(*peer_)
                          : Fig5DoctorUpdate(*peer_);
      if (!status.ok()) {
        Fail(std::move(status));
        return;
      }
    }
  }

  if (!update_pending_ && CheckConverged()) {
    converged_ = true;
    converged_at_ = scheduler_->Now();
    return;
  }
  ScheduleTick();
}

bool ClinicDaemon::EntrySettledAt(const std::string& table_id,
                                  int64_t version) {
  Result<Json> entry =
      QueryEntry(node_daemon_->node(), contract_, table_id, addresses_[0]);
  if (!entry.ok() || AwaitsAcks(entry)) return false;
  Result<int64_t> got = entry->GetInt("version");
  return got.ok() && *got >= version;
}

bool ClinicDaemon::CheckConverged() {
  if (!EntrySettledAt(ClinicScenario::kPatientDoctorTable, 2) ||
      !EntrySettledAt(ClinicScenario::kDoctorResearcherTable, 2)) {
    return false;
  }
  return (peer_ == nullptr || !peer_->HasPendingWork()) &&
         node_daemon_->node().mempools_empty();
}

void ClinicDaemon::Fail(Status status) {
  if (failure_.ok()) failure_ = std::move(status);
}

Json ClinicDaemon::Report() {
  runtime::ChainNode& node = node_daemon_->node();

  Json entries = Json::MakeObject();
  Json audits = Json::MakeObject();
  for (const char* table_id : {ClinicScenario::kPatientDoctorTable,
                               ClinicScenario::kDoctorResearcherTable}) {
    Json summary = Json::MakeObject();
    Result<Json> entry =
        QueryEntry(node, contract_, table_id, addresses_[0]);
    if (entry.ok()) {
      summary.Set("version", entry->At("version"));
      summary.Set("content_digest", entry->At("content_digest"));
      summary.Set("pending_acks",
                  static_cast<int64_t>(entry->At("pending_acks").size()));
    }
    entries.Set(table_id, std::move(summary));

    Json trail = Json::MakeArray();
    for (const AuditRecord& record :
         BuildAuditTrail(node.blockchain(), node.host(), table_id)) {
      Json row = Json::MakeObject();
      row.Set("method", record.method);
      row.Set("actor", record.actor);
      row.Set("kind", record.kind);
      Json attributes = Json::MakeArray();
      for (const std::string& attribute : record.attributes) {
        attributes.Append(attribute);
      }
      row.Set("attributes", std::move(attributes));
      row.Set("digest", record.digest);
      row.Set("committed", record.committed);
      row.Set("denial_reason", record.denial_reason);
      trail.Append(std::move(row));
    }
    audits.Set(table_id, std::move(trail));
  }

  Json digests = Json::MakeObject();
  for (const SharedTableConfig& config : shared_) {
    Result<const Table*> table = peer_->database().GetTable(config.view_table);
    digests.Set(config.table_id, table.ok() ? (*table)->ContentDigest() : "");
  }

  // The compare block excludes tx ids, block heights and timestamps: those
  // legitimately differ between simulated and wall-clock runs, while
  // everything here is protocol content that must not.
  Json compare = Json::MakeObject();
  compare.Set("entries", std::move(entries));
  compare.Set("audit", std::move(audits));
  compare.Set("view_digests", std::move(digests));

  Json info = Json::MakeObject();
  info.Set("role", ClinicRoleName(options_.role));
  info.Set("converged", converged_);
  info.Set("failed", failed());
  if (failed()) info.Set("failure", failure_.ToString());
  info.Set("height", static_cast<int64_t>(node.blockchain().height()));
  info.Set("started_at", static_cast<int64_t>(started_at_));
  info.Set("acted_at", static_cast<int64_t>(acted_at_));
  info.Set("converged_at", static_cast<int64_t>(converged_at_));
  if (peer_ != nullptr) {
    const Peer::Stats& stats = peer_->stats();
    Json peer_stats = Json::MakeObject();
    for (const auto& [name, value] :
         {std::pair{"updates_proposed", stats.updates_proposed},
          {"updates_committed", stats.updates_committed},
          {"updates_denied", stats.updates_denied},
          {"fetches_served", stats.fetches_served},
          {"fetches_applied", stats.fetches_applied},
          {"acks_sent", stats.acks_sent},
          {"digest_mismatches", stats.digest_mismatches}}) {
      peer_stats.Set(name, static_cast<int64_t>(value));
    }
    info.Set("peer", std::move(peer_stats));
  }

  Json report = Json::MakeObject();
  report.Set("compare", std::move(compare));
  report.Set("info", std::move(info));
  return report;
}

}  // namespace medsync::core
