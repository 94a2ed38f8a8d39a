// The simulator/socket seam, proven end to end: the SAME four-role clinic
// deployment (Fig. 5 cascade) is driven once over Simulator+SimNetwork and
// once over a real EventLoop with four SocketTransports on loopback TCP,
// and every role's transport-invariant report ("compare": contract entries,
// audit-trail projection, shared-view content digests) must be
// byte-identical between the two worlds. A third world, ClinicScenario
// driven by the same two updates, must land on the same contract entries
// and shared views: both clinic entry points build one Fig. 1 deployment.
// Plus the hostile-stream contract:
// bytes that fail CRC/framing condemn the connection, counted in
// net.frame_corrupt, without disturbing attached endpoints.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/daemon.h"
#include "core/scenario.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/network.h"
#include "net/simulator.h"
#include "net/socket_transport.h"

namespace medsync::net {
namespace {

using core::ClinicDaemon;
using core::ClinicDaemonOptions;
using core::ClinicRole;

constexpr std::array<ClinicRole, 4> kRoles = {
    ClinicRole::kDoctor, ClinicRole::kPatient, ClinicRole::kResearcher,
    ClinicRole::kObserver};

ClinicDaemonOptions OptionsFor(ClinicRole role) {
  ClinicDaemonOptions options;
  options.role = role;
  options.block_interval = 50 * kMicrosPerMilli;
  options.tick_interval = 10 * kMicrosPerMilli;
  options.timeout = 60 * kMicrosPerSecond;
  return options;
}

/// Per-role "compare" blocks, canonically dumped for byte comparison.
using CompareBlocks = std::map<std::string, std::string>;

void CollectCompare(std::vector<std::unique_ptr<ClinicDaemon>>& daemons,
                    CompareBlocks* out) {
  for (size_t i = 0; i < daemons.size(); ++i) {
    Json report = daemons[i]->Report();
    (*out)[core::ClinicRoleName(kRoles[i])] = report.At("compare").Dump();
  }
  // Replicated chain state (entries + audit) must already agree between
  // the roles of ONE world; view_digests legitimately differ (each role
  // reports only the shared views it hosts).
  for (size_t i = 1; i < daemons.size(); ++i) {
    for (const char* key : {"entries", "audit"}) {
      EXPECT_EQ(daemons[i]->Report().At("compare").At(key).Dump(),
                daemons[0]->Report().At("compare").At(key).Dump())
          << core::ClinicRoleName(kRoles[i]) << " " << key;
    }
  }
}

/// The whole deployment in one simulated world (the tests' home turf).
CompareBlocks RunSimulated() {
  Simulator simulator;
  SimNetwork network(&simulator, LatencyModel{}, /*seed=*/17);
  std::vector<std::unique_ptr<ClinicDaemon>> daemons;
  for (ClinicRole role : kRoles) {
    auto daemon = ClinicDaemon::Create(OptionsFor(role), &simulator, &network);
    EXPECT_TRUE(daemon.ok()) << daemon.status().ToString();
    if (!daemon.ok()) return {};
    daemons.push_back(std::move(*daemon));
  }
  for (auto& daemon : daemons) daemon->Start();

  for (int rounds = 0; rounds < 120; ++rounds) {
    simulator.RunFor(1 * kMicrosPerSecond);
    bool all = true;
    for (auto& daemon : daemons) {
      EXPECT_FALSE(daemon->failed()) << daemon->failure().ToString();
      all = all && daemon->converged();
    }
    if (all) break;
  }
  CompareBlocks out;
  for (auto& daemon : daemons) EXPECT_TRUE(daemon->converged());
  CollectCompare(daemons, &out);
  return out;
}

/// The same deployment over four real socket transports (one per role, as
/// a daemon process would own) sharing one event loop and loopback TCP.
CompareBlocks RunOverSockets() {
  EventLoop loop;
  std::vector<std::unique_ptr<SocketTransport>> transports;
  for (size_t i = 0; i < kRoles.size(); ++i) {
    SocketTransportOptions options;  // ephemeral port
    transports.push_back(
        std::make_unique<SocketTransport>(&loop, std::move(options)));
    Status listening = transports.back()->Listen();
    EXPECT_TRUE(listening.ok()) << listening.ToString();
    if (!listening.ok()) return {};
  }
  // Every transport learns where every REMOTE role's ids live — the
  // ephemeral-port version of the daemon's static route map.
  for (size_t i = 0; i < kRoles.size(); ++i) {
    for (size_t j = 0; j < kRoles.size(); ++j) {
      if (i == j) continue;
      std::string address =
          "127.0.0.1:" + std::to_string(transports[j]->port());
      for (const std::string& id : ClinicDaemon::LocalIds(kRoles[j])) {
        transports[i]->AddRoute(id, address);
      }
    }
  }

  std::vector<std::unique_ptr<ClinicDaemon>> daemons;
  for (size_t i = 0; i < kRoles.size(); ++i) {
    auto daemon =
        ClinicDaemon::Create(OptionsFor(kRoles[i]), &loop, transports[i].get());
    EXPECT_TRUE(daemon.ok()) << daemon.status().ToString();
    if (!daemon.ok()) return {};
    daemons.push_back(std::move(*daemon));
  }
  for (auto& daemon : daemons) daemon->Start();

  const Micros deadline = loop.Now() + 60 * kMicrosPerSecond;
  while (loop.Now() < deadline) {
    loop.RunOnce(20 * kMicrosPerMilli);
    bool all = true;
    for (auto& daemon : daemons) {
      EXPECT_FALSE(daemon->failed()) << daemon->failure().ToString();
      if (daemon->failed()) return {};
      all = all && daemon->converged();
    }
    if (all) break;
  }
  CompareBlocks out;
  for (size_t i = 0; i < daemons.size(); ++i) {
    EXPECT_TRUE(daemons[i]->converged())
        << core::ClinicRoleName(kRoles[i]) << " did not converge over TCP";
  }
  CollectCompare(daemons, &out);
  return out;
}

TEST(SocketEquivalenceTest, SimulatedAndSocketCascadesAgreeByteForByte) {
  CompareBlocks simulated = RunSimulated();
  ASSERT_EQ(simulated.size(), kRoles.size());
  CompareBlocks socketed = RunOverSockets();
  ASSERT_EQ(socketed.size(), kRoles.size());

  for (const auto& [role, block] : simulated) {
    EXPECT_EQ(socketed.at(role), block)
        << role << "'s protocol outcome differs between simulator and TCP";
    // Non-vacuous: the cascade actually ran (both tables at version 2).
    EXPECT_NE(block.find("\"version\":2"), std::string::npos) << role;
  }
}

// The single Fig. 1 layout: the in-process ClinicScenario, driven by the
// two Fig. 5 updates the daemons script (researcher first, then doctor),
// must reach the same contract entries and host the same view contents as
// the four simulated daemons.
TEST(SocketEquivalenceTest, ClinicScenarioMatchesTheSimulatedDaemons) {
  constexpr const char* kPD = core::ClinicScenario::kPatientDoctorTable;
  constexpr const char* kDR = core::ClinicScenario::kDoctorResearcherTable;
  CompareBlocks simulated = RunSimulated();
  ASSERT_EQ(simulated.size(), kRoles.size());

  auto created = core::ClinicScenario::Create(core::ScenarioOptions());
  ASSERT_TRUE(created.ok()) << created.status();
  core::ClinicScenario& clinic = **created;
  ASSERT_TRUE(core::Fig5ResearcherUpdate(clinic.researcher()).ok());
  ASSERT_TRUE(clinic.SettleAll().ok());
  ASSERT_TRUE(core::Fig5DoctorUpdate(clinic.doctor()).ok());
  ASSERT_TRUE(clinic.SettleAll().ok());

  const std::map<std::string, std::pair<core::Peer*, size_t>> hosts = {
      {"doctor", {&clinic.doctor(), 2}},
      {"patient", {&clinic.patient(), 1}},
      {"researcher", {&clinic.researcher(), 1}},
      {"observer", {nullptr, 0}}};
  for (const auto& [role, block] : simulated) {
    Result<Json> compare = Json::Parse(block);
    ASSERT_TRUE(compare.ok()) << compare.status();
    for (const char* table_id : {kPD, kDR}) {
      Result<Json> entry = clinic.Entry(table_id);
      ASSERT_TRUE(entry.ok()) << entry.status();
      const Json& want = compare->At("entries").At(table_id);
      EXPECT_EQ(entry->At("version").Dump(), want.At("version").Dump())
          << role << " " << table_id;
      EXPECT_EQ(entry->At("content_digest").Dump(),
                want.At("content_digest").Dump())
          << role << " " << table_id;
    }
    const auto& [peer, view_count] = hosts.at(role);
    const Json::Object& views = compare->At("view_digests").AsObject();
    ASSERT_EQ(views.size(), view_count) << role;
    for (const auto& [table_id, digest] : views) {
      Result<relational::Table> view = peer->ReadSharedTable(table_id);
      ASSERT_TRUE(view.ok()) << role << " " << table_id << ": "
                             << view.status();
      EXPECT_EQ(view->ContentDigest(), digest.AsString())
          << role << "'s " << table_id << " differs from the daemon's";
    }
  }
}

/// A raw loopback client for attacking the transport from outside the
/// net layer (which is why this lives in tests/ — MS009 keeps raw sockets
/// out of src/ itself).
class RawClient {
 public:
  explicit RawClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  void SendBytes(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  /// True once the server has closed its side (recv sees EOF).
  bool SawEof() {
    char buffer[64];
    ssize_t got = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
    return got == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class CapturingEndpoint : public Endpoint {
 public:
  void OnMessage(const Message& message) override {
    messages.push_back(message);
  }
  std::vector<Message> messages;
};

std::string ValidWireFrame(const std::string& to, const std::string& text) {
  Json envelope = Json::MakeObject();
  envelope.Set("from", Json(std::string("attacker")));
  envelope.Set("to", Json(to));
  Json body = Json::MakeObject();
  body.Set("text", text);
  envelope.Set("body", body);
  Frame frame;
  frame.type = "probe";
  frame.payload = envelope.Dump();
  return EncodeFrame(frame);
}

TEST(SocketEquivalenceTest, CorruptStreamIsCountedAndConnectionDropped) {
  EventLoop loop;
  SocketTransportOptions options;
  SocketTransport transport(&loop, std::move(options));
  ASSERT_TRUE(transport.Listen().ok());
  CapturingEndpoint endpoint;
  transport.Attach("victim", &endpoint);

  RawClient client(transport.port());
  ASSERT_TRUE(client.connected());

  // A valid frame first: the stream is healthy and delivers.
  client.SendBytes(ValidWireFrame("victim", "before"));
  for (int i = 0; i < 50 && endpoint.messages.empty(); ++i) {
    loop.RunOnce(10 * kMicrosPerMilli);
  }
  ASSERT_EQ(endpoint.messages.size(), 1u);
  EXPECT_EQ(*endpoint.messages[0].payload.GetString("text"), "before");
  EXPECT_EQ(transport.frame_corrupt_count(), 0u);
  EXPECT_EQ(transport.connection_count(), 1u);

  // Garbage mid-stream: framing fails, the connection is condemned, and a
  // frame that would have been valid never reaches the endpoint — there is
  // no resynchronizing a byte stream past corruption.
  std::string garbage = "XXXX-not-a-frame";
  garbage += ValidWireFrame("victim", "after");
  client.SendBytes(garbage);
  for (int i = 0; i < 50 && transport.connection_count() > 0; ++i) {
    loop.RunOnce(10 * kMicrosPerMilli);
  }
  EXPECT_EQ(transport.frame_corrupt_count(), 1u);
  EXPECT_EQ(transport.connection_count(), 0u);
  EXPECT_EQ(endpoint.messages.size(), 1u);
  bool eof = false;
  for (int i = 0; i < 50 && !eof; ++i) {
    loop.RunOnce(10 * kMicrosPerMilli);
    eof = client.SawEof();
  }
  EXPECT_TRUE(eof) << "server kept a condemned connection open";

  // The transport survives to serve a fresh, healthy connection.
  RawClient second(transport.port());
  ASSERT_TRUE(second.connected());
  second.SendBytes(ValidWireFrame("victim", "recovered"));
  for (int i = 0; i < 50 && endpoint.messages.size() < 2; ++i) {
    loop.RunOnce(10 * kMicrosPerMilli);
  }
  ASSERT_EQ(endpoint.messages.size(), 2u);
  EXPECT_EQ(*endpoint.messages[1].payload.GetString("text"), "recovered");
}

}  // namespace
}  // namespace medsync::net
