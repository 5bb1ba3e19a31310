#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/rng.hpp"
#include "crypto/aes128.hpp"
#include "crypto/onion.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"
#include "whisper/keypool.hpp"

namespace perfbench {

using whisper::net::CpuCategory;

SteadyClock::time_point g_process_start = SteadyClock::now();

std::string fmt_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string result_json(const Result& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": " << fmt_number(m.value) << ", \"unit\": \"" << m.unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - g_process_start)
      .count();
}

std::uint64_t Tracer::begin(std::string name, std::uint64_t op, std::uint64_t parent) {
  if (!enabled_) return 0;
  Span s;
  s.name = std::move(name);
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0 || id > spans_.size()) return;
  Span& s = spans_[id - 1];
  if (s.end_ns < 0) s.end_ns = now_ns();
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.end_ns >= 0 && s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

double Tracer::total_s(const std::string& name) const {
  double t = 0;
  for (double us : durations_us(name)) t += us / 1e6;
  return t;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (const auto& s : spans_) {
    f << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"op\":" << s.op << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << "}\n";
  }
  return static_cast<bool>(f);
}

void Tracer::write_run(const std::string& workload, std::uint64_t seed) const {
  const std::string dir = ".bench_out";
  const std::string path = dir + "/trace-" + workload + "-" + std::to_string(seed) + ".jsonl";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !write_jsonl(path)) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

// ---------------------------------------------------------------------------

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

void ChunkMeter::start() {
  cur_ = 0;
  last_wall_ = SteadyClock::now();
  last_cpu_ = process_cpu_s();
}

void ChunkMeter::charge() {
  const auto w = SteadyClock::now();
  const double c = process_cpu_s();
  wall_[cur_] += std::chrono::duration<double>(w - last_wall_).count();
  cpu_[cur_] += c - last_cpu_;
  last_wall_ = w;
  last_cpu_ = c;
}

void ChunkMeter::next() {
  charge();
  if (cur_ + 1 < wall_.size()) ++cur_;
}

double ChunkMeter::wall_s() const {
  return static_cast<double>(wall_.size()) * percentile(wall_, 50);
}
double ChunkMeter::cpu_s() const { return static_cast<double>(cpu_.size()) * percentile(cpu_, 50); }
double ChunkMeter::total_wall_s() const {
  double t = 0;
  for (double v : wall_) t += v;
  return t;
}
double ChunkMeter::total_cpu_s() const {
  double t = 0;
  for (double v : cpu_) t += v;
  return t;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double cpu_total_s(const std::vector<whisper::WhisperNode*>& nodes, CpuCategory c) {
  double t = 0;
  for (auto* n : nodes) t += static_cast<double>(n->cpu().spent(c)) / 1e6;
  return t;
}

LayerCounters read_counters(const std::vector<whisper::WhisperNode*>& nodes,
                            const std::vector<whisper::GroupId>& groups) {
  LayerCounters c;
  for (auto* n : nodes) {
    for (whisper::GroupId g : groups) {
      if (auto* p = n->group(g)) c.ppss_exchanges += p->stats().exchanges_completed;
    }
    for (std::size_t k = 0; k < static_cast<std::size_t>(CpuCategory::kCount); ++k) {
      c.cpu_s[k] += static_cast<double>(n->cpu().spent(static_cast<CpuCategory>(k))) / 1e6;
    }
    const auto& w = n->wcl().stats();
    c.wcl_attempts += w.total_attempts;
    c.wcl_sends += w.first_try_success + w.alternative_success + w.no_alternative;
    c.wcl_forwarded += w.onions_forwarded;
    c.wcl_delivered += w.onions_delivered;
    c.wcl_unclean += w.alternative_success + w.no_alternative + w.forward_failures +
                     w.forwards_expired + w.forwards_evicted + w.replays_suppressed +
                     w.rate_limited;
    c.relayed_sends += n->transport().sends_relayed();
  }
  return c;
}

LayerCounters diff(const LayerCounters& b, const LayerCounters& a) {
  LayerCounters d;
  for (std::size_t k = 0; k < static_cast<std::size_t>(CpuCategory::kCount); ++k) {
    d.cpu_s[k] = b.cpu_s[k] - a.cpu_s[k];
  }
  d.wcl_attempts = b.wcl_attempts - a.wcl_attempts;
  d.wcl_sends = b.wcl_sends - a.wcl_sends;
  d.wcl_forwarded = b.wcl_forwarded - a.wcl_forwarded;
  d.wcl_delivered = b.wcl_delivered - a.wcl_delivered;
  d.wcl_unclean = b.wcl_unclean - a.wcl_unclean;
  d.relayed_sends = b.relayed_sends - a.relayed_sends;
  d.ppss_exchanges = b.ppss_exchanges - a.ppss_exchanges;
  return d;
}

// ---------------------------------------------------------------------------

Bytes make_payload(std::uint64_t seed, std::uint64_t id, std::size_t size) {
  Bytes out(std::max<std::size_t>(size, 8));
  for (int i = 0; i < 8; ++i) out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(id >> (8 * i));
  whisper::Rng rng(seed * 0x9e3779b97f4a7c15ull ^ id);
  rng.fill_bytes(out.data() + 8, out.size() - 8);
  return out;
}

std::optional<std::uint64_t> payload_id(BytesView payload) {
  if (payload.size() < 8) return std::nullopt;
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) id |= static_cast<std::uint64_t>(payload[static_cast<std::size_t>(i)]) << (8 * i);
  return id;
}

std::vector<Op> make_schedule(const std::vector<Stream>& streams, std::int64_t window_us,
                              std::size_t members, std::uint64_t seed) {
  whisper::Rng rng(seed ^ 0x5ced0011e0000ull);
  std::vector<Op> ops;
  for (const Stream& s : streams) {
    const auto count = static_cast<std::uint64_t>(
        std::llround(s.rate_per_s * static_cast<double>(window_us) / 1e6));
    for (std::uint64_t i = 0; i < count; ++i) {
      Op op;
      op.kind = s.kind;
      op.due = static_cast<std::int64_t>(static_cast<double>(i) * 1e6 / s.rate_per_s);
      op.src = static_cast<std::size_t>(rng.next_below(members));
      op.dst = static_cast<std::size_t>(rng.next_below(members - 1));
      if (op.dst >= op.src) ++op.dst;
      op.key = rng.next_u64();
      ops.push_back(op);
    }
  }
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) { return a.due < b.due; });
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i].id = i + 1;
  return ops;
}

std::string check_delivery(std::uint64_t seed, const Op& op, std::size_t size,
                           std::size_t receiver, BytesView payload) {
  if (receiver != op.dst) {
    return "message " + std::to_string(op.id) + " reached member " + std::to_string(receiver) +
           ", addressed to " + std::to_string(op.dst);
  }
  const Bytes want = make_payload(seed, op.id, size);
  if (payload.size() != want.size() || !std::equal(want.begin(), want.end(), payload.begin())) {
    return "message " + std::to_string(op.id) + " payload differs from what was sent";
  }
  return {};
}

std::map<whisper::chord::ChordKey, NodeId> build_ring(const std::vector<NodeId>& members) {
  std::map<whisper::chord::ChordKey, NodeId> ring;
  for (NodeId id : members) ring[whisper::chord::chord_key_of(id)] = id;
  return ring;
}

NodeId expected_owner(const std::map<whisper::chord::ChordKey, NodeId>& ring,
                      whisper::chord::ChordKey key) {
  if (ring.empty()) return NodeId{};
  auto it = ring.lower_bound(key);
  if (it == ring.end()) it = ring.begin();
  return it->second;
}

std::string check_owner(const std::map<whisper::chord::ChordKey, NodeId>& ring,
                        whisper::chord::ChordKey key, NodeId answered) {
  const NodeId want = expected_owner(ring, key);
  if (answered == want) return {};
  return "key " + std::to_string(key) + " answered by " + answered.str() + ", the ring names " +
         want.str();
}

std::vector<NodeId> view_outsiders(const std::vector<NodeId>& view,
                                   const std::vector<NodeId>& members) {
  const std::set<NodeId> m(members.begin(), members.end());
  std::vector<NodeId> out;
  for (NodeId id : view) {
    if (!m.count(id)) out.push_back(id);
  }
  return out;
}

// ---------------------------------------------------------------------------

namespace {

Bytes unhex(const char* s) {
  Bytes out;
  for (std::size_t i = 0; s[i] && s[i + 1]; i += 2) {
    out.push_back(static_cast<std::uint8_t>(std::stoi(std::string(s + i, 2), nullptr, 16)));
  }
  return out;
}

template <typename Arr>
Arr to_array(const Bytes& b) {
  Arr a{};
  std::copy_n(b.begin(), a.size(), a.begin());
  return a;
}

/// An onion probe path of `hops` pooled identities (mixes, then destination).
std::vector<whisper::crypto::OnionHop> probe_path(std::size_t hops, std::size_t bits) {
  std::vector<whisper::crypto::OnionHop> path;
  for (std::size_t i = 0; i < hops; ++i) {
    whisper::crypto::OnionHop h;
    h.id = NodeId{1000 + i};
    h.key = whisper::pooled_keypair(i, bits).pub;
    h.addr = whisper::Endpoint{0x0a000001u + static_cast<std::uint32_t>(i), 4000};
    path.push_back(h);
  }
  return path;
}

/// Peel `packet` hop by hop with each pooled key; the destination's content.
std::optional<Bytes> peel_all(const whisper::crypto::OnionPacket& packet, std::size_t hops,
                              std::size_t bits) {
  whisper::crypto::OnionPacket cur = packet;
  for (std::size_t i = 0; i < hops; ++i) {
    auto peel = whisper::crypto::onion_peel(whisper::pooled_keypair(i, bits), cur);
    if (!peel) return std::nullopt;
    if (peel->is_destination) return i + 1 == hops ? std::optional<Bytes>(peel->content) : std::nullopt;
    if (peel->next_hop != NodeId{1000 + i + 1}) return std::nullopt;
    cur = peel->next_packet;
  }
  return std::nullopt;
}

}  // namespace

void crypto_checks(Result& r, bool corrupt) {
  using namespace whisper::crypto;
  // NIST SP 800-38A, F.5.1 CTR-AES128.Encrypt.
  const auto key = to_array<AesKey>(unhex("2b7e151628aed2a6abf7158809cf4f3c"));
  const auto iv = to_array<AesBlock>(unhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"));
  const Bytes pt = unhex(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  Bytes ct = unhex(
      "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
      "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee");
  if (corrupt) ct[17] ^= 0x01;
  r.check(aes128_ctr(key, iv, pt) == ct, "AES-128-CTR differs from NIST SP 800-38A F.5.1");
  // FIPS 180-4 example: SHA-256("abc").
  const Bytes abc{'a', 'b', 'c'};
  const auto d = Sha256::hash(abc);
  Bytes want = unhex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  if (corrupt) want[5] ^= 0x80;
  r.check(Bytes(d.begin(), d.end()) == want, "SHA-256(\"abc\") differs from FIPS 180-4");
  // Onion over a 3-hop probe path, peeled with each hop's key.
  Drbg drbg(77);
  const Bytes content = make_payload(77, 1, 300);
  const auto path = probe_path(3, 512);
  auto packet = onion_build(path, content, drbg);
  if (corrupt) packet.body[40] ^= 0x04;
  const auto out = peel_all(packet, 3, 512);
  r.check(out && *out == content, "onion peeled hop by hop does not return its content");
}

void crypto_timings(Result& r, Tracer& tracer, std::size_t hops, std::size_t rsa_bits) {
  using namespace whisper::crypto;
  const auto path = probe_path(hops, rsa_bits);
  Drbg drbg(99);
  for (const std::size_t size : {std::size_t{64}, std::size_t{16384}}) {
    const std::string tag = size == 64 ? "64b" : "16k";
    const Bytes content = make_payload(99, size, size);
    const int reps = size == 64 ? 200 : 60;
    std::vector<double> build_us, peel_us;
    for (int i = 0; i < reps; ++i) {
      OnionPacket packet;
      {
        Scoped s(tracer, "crypto.onion_build_" + tag);
        packet = onion_build(path, content, drbg);
      }
      Scoped s(tracer, "crypto.onion_peel_" + tag);
      auto peel = onion_peel(whisper::pooled_keypair(0, rsa_bits), packet);
      if (!peel) r.check(false, "onion peel probe failed");
    }
    r.set("crypto.onion_build_" + tag + "_us",
          percentile(tracer.durations_us("crypto.onion_build_" + tag), 50), "us");
    r.set("crypto.onion_peel_" + tag + "_us",
          percentile(tracer.durations_us("crypto.onion_peel_" + tag), 50), "us");
  }
  // Bulk throughput over a 1 MiB buffer, best of several passes.
  const Bytes buf = make_payload(5, 5, 1 << 20);
  AesKey key{};
  AesBlock iv{};
  double aes_best = 1e9, sha_best = 1e9;
  for (int i = 0; i < 8; ++i) {
    const auto t0 = SteadyClock::now();
    const Bytes c = aes128_ctr(key, iv, buf);
    aes_best = std::min(aes_best, since(t0));
    const auto t1 = SteadyClock::now();
    const auto h = Sha256::hash(c);
    sha_best = std::min(sha_best, since(t1));
    if (h[0] == 0 && h[1] == 0 && h[2] == 0 && h[3] == 0) std::fprintf(stderr, ".");
  }
  r.set("crypto.aes_ctr_mib_s", 1.0 / aes_best, "MiB/s");
  r.set("crypto.sha256_mib_s", 1.0 / sha_best, "MiB/s");
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> v = {
      {"setup_s", "s"},       {"msg_p50_us", "us"}, {"bulk_p50_us", "us"},
      {"lookup_p50_us", "us"}, {"cpu_s", "s"},     {"sim_run_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return v;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> v = {
      {"net.udp_rtt_p50_us", "us"},
      {"net.datagrams_per_op", "count"},
      {"net.wire_bytes_per_op", "B"},
      {"net.sim_packets", "count"},
      {"crypto.onion_build_64b_us", "us"},
      {"crypto.onion_peel_64b_us", "us"},
      {"crypto.onion_build_16k_us", "us"},
      {"crypto.onion_peel_16k_us", "us"},
      {"crypto.aes_ctr_mib_s", "MiB/s"},
      {"crypto.sha256_mib_s", "MiB/s"},
      {"crypto.aes_s", "s"},
      {"crypto.rsa_encrypt_s", "s"},
      {"crypto.rsa_decrypt_s", "s"},
      {"crypto.rsa_sign_s", "s"},
      {"crypto.keygen_s", "s"},
      {"nylon.pss_handler_s", "s"},
      {"nylon.relayed_sends", "count"},
      {"keysvc.handler_s", "s"},
      {"wcl.ack_rtt_p50_us", "us"},
      {"wcl.send_call_us", "us"},
      {"wcl.attempts_per_send", "count"},
      {"wcl.handler_s", "s"},
      {"wcl.onions_forwarded", "count"},
      {"ppss.handler_s", "s"},
      {"ppss.exchanges_completed", "count"},
      {"ppss.exchange_rtt_p50_us", "us"},
      {"ppss.join_s", "s"},
      {"chord.hops_per_lookup", "count"},
      {"chord.ring_converge_s", "s"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.cross_shard_msgs", "count"},
      {"sim.shard_imbalance", "ratio"},
      {"whisper.boot_s", "s"},
      {"whisper.rss_kib_per_node", "KiB"},
  };
  return v;
}

}  // namespace perfbench
