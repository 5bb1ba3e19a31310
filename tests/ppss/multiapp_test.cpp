// App-id multiplexing: several protocols share one PPSS group, each on its
// own `register_app` channel, and a frame is dispatched only to the handler
// registered under its app id.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "chord/tchord.hpp"
#include "whisper/testbed.hpp"

namespace whisper::ppss {
namespace {

constexpr GroupId kGroup{90909};
constexpr std::uint8_t kEchoApp = 7;
constexpr std::uint8_t kStrayApp = 9;  // no handler at the target until late
static_assert(kEchoApp != chord::kChordAppId && kStrayApp != chord::kChordAppId);

TestbedConfig config(std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.initial_nodes = 35;
  cfg.node.pss.pi_min_public = 3;
  cfg.node.wcl.pi = 3;
  cfg.node.ppss.cycle = 30 * net::kSecond;
  cfg.seed = seed;
  return cfg;
}

std::string text(BytesView p) { return std::string(p.begin(), p.end()); }

TEST(MultiApp, ChordAndEchoShareOneGroup) {
  WhisperTestbed tb(config(3007));
  tb.run_for(6 * net::kMinute);
  auto nodes = tb.alive_nodes();
  crypto::Drbg d(3007);
  auto& founder = nodes[0]->create_group(kGroup, crypto::RsaKeyPair::generate(512, d));
  std::vector<Ppss*> members{&founder};
  for (std::size_t i = 1; i < 8; ++i) {
    members.push_back(&nodes[i]->join_group(kGroup, *founder.invite(nodes[i]->id()),
                                            founder.self_descriptor()));
    tb.run_for(5 * net::kSecond);
  }
  tb.run_for(5 * net::kMinute);

  chord::TChordConfig tc;
  tc.cycle = 20 * net::kSecond;
  std::vector<std::unique_ptr<chord::TChord>> rings;
  for (Ppss* m : members) {
    rings.push_back(std::make_unique<chord::TChord>(tb.clock(), *m, tc, tb.rng().fork()));
    rings.back()->start();
  }

  // Echo channel: "ping:<i>" is answered with "pong:<i>" to the sender.
  // Every frame seen by any echo or default handler is counted by text.
  std::vector<std::map<std::string, int>> seen(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    Ppss* self = members[i];
    self->register_app(kEchoApp, [self, &seen, i](const wcl::RemotePeer& from, BytesView p) {
      const std::string msg = text(p);
      ++seen[i][msg];
      if (msg.rfind("ping:", 0) == 0) {
        self->send_app_to(from, to_bytes("pong:" + msg.substr(5)), kEchoApp);
      }
    });
    self->on_app_message = [&seen, i](const wcl::RemotePeer&, BytesView p) {
      ++seen[i]["default:" + text(p)];
    };
  }
  for (std::size_t i = 1; i < members.size(); ++i) {
    ASSERT_TRUE(members[0]->send_app_to(members[i]->self_descriptor(),
                                        to_bytes("ping:" + std::to_string(i)), kEchoApp));
  }
  // A frame for an app id nobody at the target registered.
  Ppss* target = members[1];
  const std::uint64_t chord_rejects_before = rings[1]->stats().decode_rejects;
  ASSERT_TRUE(members[0]->send_app_to(target->self_descriptor(), to_bytes("stray:1"),
                                      kStrayApp));
  tb.run_for(8 * net::kMinute);

  // The ring converged despite sharing the group with echo traffic.
  std::size_t with_successor = 0;
  for (auto& r : rings) with_successor += r->successor().has_value() ? 1 : 0;
  EXPECT_EQ(with_successor, rings.size());

  // Every ping and every pong arrived exactly once, and nothing else did.
  std::map<std::string, int> expected_at_founder;
  for (std::size_t i = 1; i < members.size(); ++i) {
    const std::string n = std::to_string(i);
    EXPECT_EQ(seen[i], (std::map<std::string, int>{{"ping:" + n, 1}})) << "member " << i;
    expected_at_founder["pong:" + n] = 1;
  }
  EXPECT_EQ(seen[0], expected_at_founder);

  // The stray frame reached neither the echo, the default nor the chord
  // handler (chord would have counted a garbage payload as a reject).
  EXPECT_EQ(rings[1]->stats().decode_rejects, chord_rejects_before);

  // Control: once the target registers that id, the same kind of frame
  // arrives there, and only the new one (the first was not held back).
  std::map<std::string, int> stray_seen;
  target->register_app(kStrayApp, [&stray_seen](const wcl::RemotePeer&, BytesView p) {
    ++stray_seen[text(p)];
  });
  ASSERT_TRUE(members[0]->send_app_to(target->self_descriptor(), to_bytes("stray:2"),
                                      kStrayApp));
  tb.run_for(1 * net::kMinute);
  EXPECT_EQ(stray_seen, (std::map<std::string, int>{{"stray:2", 1}}));
}

}  // namespace
}  // namespace whisper::ppss
