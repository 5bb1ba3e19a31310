// Cross-backend equivalence: the quickstart scenario — bootstrap a mesh,
// found a private group, invite a member, exchange onion-routed
// application messages — run once on the deterministic simulator and once
// on the real UDP/epoll backend over loopback. The protocol stack is the
// same code against the same SPI; this test pins the observable outcome:
// identical delivered payload bytes and identical group membership.
#include <gtest/gtest.h>

#include <vector>

#include "whisper/realnet.hpp"
#include "whisper/testbed.hpp"

namespace whisper {
namespace {

constexpr std::size_t kNodes = 8;

struct ScenarioOutcome {
  bool alice_joined = false;
  bool bob_joined = false;
  bool passport_ok = false;
  std::vector<Bytes> alice_got;
  std::vector<Bytes> bob_got;
};

/// The quickstart exchange against any pair of booted nodes. `run`
/// advances the backend (virtual time under sim, wall time under UDP).
template <typename RunFn>
ScenarioOutcome run_scenario(WhisperNode& alice, WhisperNode& bob, RunFn run) {
  ScenarioOutcome out;
  const GroupId group{1};
  crypto::Drbg drbg(42);
  ppss::Ppss& alice_group =
      alice.create_group(group, crypto::RsaKeyPair::generate(512, drbg));
  auto invitation = alice_group.invite(bob.id());
  if (!invitation) return out;
  ppss::Ppss& bob_group =
      bob.join_group(group, *invitation, alice_group.self_descriptor());
  run(3 * net::kSecond);

  bob_group.on_app_message = [&](const wcl::RemotePeer& from, BytesView p) {
    out.bob_got.emplace_back(p.begin(), p.end());
    bob_group.send_app_to(from, to_bytes("psst! got it."));
  };
  alice_group.on_app_message = [&](const wcl::RemotePeer&, BytesView p) {
    out.alice_got.emplace_back(p.begin(), p.end());
  };
  alice_group.send_app_to(bob_group.self_descriptor(),
                          to_bytes("meet at the usual place"));
  run(4 * net::kSecond);

  out.alice_joined = alice_group.joined();
  out.bob_joined = bob_group.joined();
  out.passport_ok = bob_group.keyring().verify_passport(bob_group.passport());
  return out;
}

ScenarioOutcome run_on_simulator() {
  TestbedConfig cfg;
  cfg.initial_nodes = kNodes;
  cfg.natted_fraction = 0;  // loopback has no NAT; keep the meshes alike
  cfg.latency = "cluster";
  cfg.node = realtime_node_config();
  cfg.seed = 7;
  WhisperTestbed tb(cfg);
  tb.run_for(5 * net::kSecond);
  auto nodes = tb.alive_nodes();
  return run_scenario(*nodes[0], *nodes[1],
                      [&](net::Time d) { tb.run_for(d); });
}

ScenarioOutcome run_on_udp() {
  UdpMesh mesh;
  for (std::size_t i = 0; i < kNodes; ++i) {
    WhisperNode* n = mesh.spawn_node();
    EXPECT_NE(n, nullptr) << mesh.backend().last_error();
    if (n == nullptr) return {};
  }
  mesh.run_for(5 * net::kSecond);
  auto nodes = mesh.nodes();
  return run_scenario(*nodes[0], *nodes[1],
                      [&](net::Time d) { mesh.run_for(d); });
}

TEST(CrossBackendEquivalence, QuickstartDeliversIdenticalBytesAndMembership) {
  const ScenarioOutcome sim = run_on_simulator();
  const ScenarioOutcome udp = run_on_udp();

  // Membership converges identically.
  EXPECT_TRUE(sim.alice_joined);
  EXPECT_TRUE(sim.bob_joined);
  EXPECT_TRUE(sim.passport_ok);
  EXPECT_EQ(sim.alice_joined, udp.alice_joined);
  EXPECT_EQ(sim.bob_joined, udp.bob_joined);
  EXPECT_EQ(sim.passport_ok, udp.passport_ok);

  // The delivered application payloads are byte-identical across backends.
  ASSERT_EQ(sim.bob_got.size(), 1u);
  ASSERT_EQ(sim.alice_got.size(), 1u);
  EXPECT_EQ(sim.bob_got, udp.bob_got);
  EXPECT_EQ(sim.alice_got, udp.alice_got);
  EXPECT_EQ(sim.bob_got[0], to_bytes("meet at the usual place"));
  EXPECT_EQ(sim.alice_got[0], to_bytes("psst! got it."));
}

}  // namespace
}  // namespace whisper
