// The benchmark's own self-test (whisper_perfbench --selftest):
//   - each output check trips on a corrupted input;
//   - each sim workload, run twice with one seed, gives one outcome digest,
//     and another seed gives another;
//   - a small sim_scale population gives identical merged metrics at 1 and
//     2 shards.
#include <cstdio>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void checks_trip() {
  const std::uint64_t seed = 3;
  Op op;
  op.id = 9;
  op.dst = 4;
  Bytes payload = make_payload(seed, op.id, 64);
  expect(check_delivery(seed, op, 64, 4, payload).empty(), "intact message passes the delivery check");
  payload[20] ^= 0x01;
  expect(!check_delivery(seed, op, 64, 4, payload).empty(), "flipped payload byte fails the delivery check");
  payload[20] ^= 0x01;
  expect(!check_delivery(seed, op, 64, 5, payload).empty(), "delivery to the wrong member fails the check");
  expect(!check_delivery(seed, op, 64, 4, Bytes(payload.begin(), payload.end() - 1)).empty(),
         "truncated payload fails the delivery check");

  // Owner check against a brute-force successor over the member keys.
  std::vector<NodeId> ids;
  for (std::uint64_t i = 1; i <= 40; ++i) ids.push_back(NodeId{i * 7});
  const auto ring = build_ring(ids);
  whisper::Rng rng(11);
  bool agree = true;
  for (int k = 0; k < 2000; ++k) {
    const auto key = rng.next_u64();
    NodeId best;
    std::uint64_t best_d = ~0ull;
    for (NodeId id : ids) {
      const auto d = whisper::chord::ring_distance(key, whisper::chord::chord_key_of(id));
      if (d < best_d) {
        best_d = d;
        best = id;
      }
    }
    agree = agree && expected_owner(ring, key) == best;
  }
  expect(agree, "expected owner equals a brute-force ring successor");
  const auto key = rng.next_u64();
  const NodeId right = expected_owner(ring, key);
  const NodeId wrong = right == ids[0] ? ids[1] : ids[0];
  expect(check_owner(ring, key, right).empty(), "the right owner passes the owner check");
  expect(!check_owner(ring, key, wrong).empty(), "a wrong owner fails the owner check");
  expect(!check_owner(ring, key, NodeId{999}).empty(), "a non-member owner fails the owner check");

  std::vector<NodeId> view(ids.begin(), ids.begin() + 5);
  expect(view_outsiders(view, ids).empty(), "a members-only view passes the membership check");
  view.push_back(NodeId{999});
  expect(view_outsiders(view, ids).size() == 1, "a non-member in a view fails the membership check");

  Result good, bad;
  crypto_checks(good);
  crypto_checks(bad, /*corrupt=*/true);
  expect(good.correct, "crypto known answers and onion round trip pass");
  expect(bad.problems.size() == 3, "each corrupted crypto answer fails its check (" +
                                       std::to_string(bad.problems.size()) + "/3)");
}

void sims_deterministic() {
  Options o;
  o.seconds = 2;
  auto paper = [&](std::uint64_t seed) {
    o.seed = seed;
    Result r;
    const auto digest = sim_paper_at(o, r, 150, 2, 30);
    expect(r.correct && r.failed == 0, "small sim_paper (seed " + std::to_string(seed) +
                                           ") passes its checks with no failed op");
    return digest;
  };
  const auto a = paper(1), b = paper(1), c = paper(2);
  expect(a == b, "sim_paper: same seed, same outcome digest");
  expect(a != c, "sim_paper: another seed, another outcome digest");

  auto scale = [&](std::uint64_t seed, std::size_t shards, std::string* jsonl) {
    o.seed = seed;
    Result r;
    const auto digest = sim_scale_at(o, r, 600, shards, 10, jsonl);
    expect(r.correct && r.failed == 0, "small sim_scale (seed " + std::to_string(seed) + ", " +
                                           std::to_string(shards) +
                                           " shards) passes its checks with no failed op");
    return digest;
  };
  std::string m1, m2;
  const auto s1 = scale(1, 2, &m2), s2 = scale(1, 2, nullptr), s3 = scale(2, 2, nullptr);
  expect(s1 == s2, "sim_scale: same seed, same outcome digest");
  expect(s1 != s3, "sim_scale: another seed, another outcome digest");
  const auto s4 = scale(1, 1, &m1);
  expect(!m1.empty() && m1 == m2, "sim_scale: merged metrics identical at 1 and 2 shards");
  expect(s4 == s1, "sim_scale: outcome digest identical at 1 and 2 shards");
}

}  // namespace

int run_selftest() {
  checks_trip();
  sims_deterministic();
  std::fprintf(stderr, "selftest: %s (%d failures)\n", g_failures ? "FAILED" : "ok", g_failures);
  return g_failures ? 1 : 0;
}

}  // namespace perfbench
