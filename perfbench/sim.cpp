// sim_paper and sim_scale: WHISPER in the deterministic simulator.
//
// Both run the same code over a small host interface: boot, wait until
// every backlog holds Π P-nodes, form the private groups, build a T-Chord
// ring over group 0, then run an open loop of group messages and lookups
// over a fixed virtual window (its length scales with --seconds). Operations
// are issued on the main thread at their exact virtual due times; latencies
// are virtual, host time is what sim_run_s and cpu_s measure.
//
// sim_paper: the paper's deployment on the classic engine — 1k nodes, 70 %
// NATted, Π = 3, 8 groups covering every node.
// sim_scale: ScaleTestbed, 20k nodes on 2 shards, planetlab latency, pooled
// keys recycled; Nylon peer sampling for the population and one 12-member
// probe group at low rates, so the engine dominates host time.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "common.hpp"
#include "common/rng.hpp"
#include "whisper/keypool.hpp"
#include "whisper/scale.hpp"
#include "whisper/testbed.hpp"

namespace perfbench {

namespace {

using namespace whisper;

constexpr std::size_t kMsgBytes = 64;
constexpr std::size_t kBulkBytes = 16 * 1024;
constexpr std::size_t kRsaBits = 512;
/// Longest virtual time a set-up phase may take before the run goes on.
constexpr net::Time kReadyCap = 15 * net::kMinute;

/// The part of a testbed the benchmark needs, for either engine.
class Host {
 public:
  virtual ~Host() = default;
  virtual void run_for(net::Time d) = 0;
  virtual net::Time now() const = 0;
  virtual std::vector<WhisperNode*> nodes() = 0;
  /// Clock of the shard hosting `n` (callbacks of `n` run on it).
  virtual net::Clock& clock_of(WhisperNode* n) = 0;
  virtual std::vector<std::uint64_t> shard_events() const = 0;
  virtual std::uint64_t packets_sent() = 0;
  virtual std::uint64_t packets_delivered() = 0;
  virtual std::uint64_t bytes_sent() = 0;
  virtual std::uint64_t cross_shard() const = 0;

  void advance_to(net::Time t) {
    if (t > now()) run_for(t - now());
  }
};

std::uint64_t wire_bytes(telemetry::Registry& reg) {
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < static_cast<std::size_t>(net::Proto::kCount); ++p) {
    total += reg.counter("net.bytes", {{"proto", net::proto_name(static_cast<net::Proto>(p))},
                                       {"dir", "up"}})
                 .value();
  }
  return total;
}

class ClassicHost final : public Host {
 public:
  explicit ClassicHost(TestbedConfig cfg) : tb_(std::move(cfg)) {}
  void run_for(net::Time d) override { tb_.run_for(d); }
  net::Time now() const override { return const_cast<WhisperTestbed&>(tb_).clock().now(); }
  std::vector<WhisperNode*> nodes() override { return tb_.alive_nodes(); }
  net::Clock& clock_of(WhisperNode*) override { return tb_.clock(); }
  std::vector<std::uint64_t> shard_events() const override { return {tb_.executed_events()}; }
  std::uint64_t packets_sent() override {
    return tb_.registry().counter("net.packets.sent").value();
  }
  std::uint64_t packets_delivered() override { return tb_.packets_delivered(); }
  std::uint64_t bytes_sent() override { return wire_bytes(tb_.registry()); }
  std::uint64_t cross_shard() const override { return 0; }

 private:
  WhisperTestbed tb_;
};

class ShardedHost final : public Host {
 public:
  explicit ShardedHost(ScaleConfig cfg) : tb_(std::move(cfg)) {}
  void run_for(net::Time d) override { tb_.run_for(d); }
  net::Time now() const override { return tb_.now(); }
  std::vector<WhisperNode*> nodes() override { return tb_.alive_nodes(); }
  net::Clock& clock_of(WhisperNode* n) override {
    return tb_.simulator(ScaleTestbed::shard_of_index(n->id().value - 1, tb_.shard_count()));
  }
  std::vector<std::uint64_t> shard_events() const override {
    std::vector<std::uint64_t> v;
    for (std::size_t s = 0; s < tb_.shard_count(); ++s) {
      v.push_back(const_cast<ScaleTestbed&>(tb_).simulator(s).executed_events());
    }
    return v;
  }
  std::uint64_t packets_sent() override {
    std::uint64_t t = 0;
    for (std::size_t s = 0; s < tb_.shard_count(); ++s) t += tb_.network(s).packets_sent();
    return t;
  }
  std::uint64_t packets_delivered() override {
    std::uint64_t t = 0;
    for (std::size_t s = 0; s < tb_.shard_count(); ++s) t += tb_.network(s).packets_delivered();
    return t;
  }
  std::uint64_t bytes_sent() override {
    std::uint64_t t = 0;
    for (std::size_t s = 0; s < tb_.shard_count(); ++s) t += wire_bytes(tb_.registry(s));
    return t;
  }
  std::uint64_t cross_shard() const override { return tb_.cross_shard_messages(); }
  ScaleTestbed& testbed() { return tb_; }

 private:
  ScaleTestbed tb_;
};

struct Plan {
  std::string name;
  std::size_t groups = 1;
  /// Members of group 0 when only a probe group of P-nodes is formed (0 =
  /// every node joins one of `groups`). Confidential sends to NATted
  /// members at planetlab latency fail on some seeds, so a probe group has
  /// none.
  std::size_t probe_members = 0;
  std::size_t pi = 3;
  net::Time window = 0;              // virtual
  net::Time poll_step = 5 * net::kSecond;
  net::Time drain = 30 * net::kSecond;
  double msg_rate = 0, bulk_rate = 0, lookup_rate = 0;  // per virtual second
  chord::TChordConfig chord;
  /// Pooled key index of group 0's key (the keys after the nodes' keys).
  std::size_t group_key_base = 0;
  /// Seed of the deployment (population, memberships, rings): fixed, so
  /// runs differ only in their traffic, which --seed draws.
  std::uint64_t deploy_seed = 7;
  std::uint64_t seed = 1;
  bool trace = false;
};

/// Advance in `step`s until `ready()`; false if `cap` virtual time passed first.
bool sim_poll(Host& host, net::Time step, net::Time cap, const std::function<bool()>& ready) {
  const net::Time t0 = host.now();
  while (!ready()) {
    if (host.now() - t0 >= cap) return false;
    host.run_for(step);
  }
  return true;
}

std::uint64_t drive(Host& host, const Plan& plan, Result& r, double keygen_s) {
  Tracer tracer(plan.trace);
  r.set("crypto.keygen_s", keygen_s, "s");
  Rng rng(plan.deploy_seed ^ 0x517e);

  // --- Membership plan. Leaders are the first public nodes; the others
  // join a random group, or only a probe group of `probe_members`. ---
  std::vector<WhisperNode*> nodes = host.nodes();
  std::vector<WhisperNode*> publics;
  for (auto* n : nodes) {
    if (n->is_public()) publics.push_back(n);
  }
  std::vector<GroupId> gids;
  std::vector<std::vector<WhisperNode*>> members(plan.groups);
  for (std::size_t g = 0; g < plan.groups; ++g) {
    gids.push_back(GroupId{100 + g});
    members[g].push_back(publics[g]);
  }
  std::vector<WhisperNode*> joiners(nodes.begin(), nodes.end());
  std::erase_if(joiners, [&](WhisperNode* n) {
    return std::find(publics.begin(), publics.begin() + static_cast<std::ptrdiff_t>(plan.groups),
                     n) != publics.begin() + static_cast<std::ptrdiff_t>(plan.groups);
  });
  if (plan.probe_members > 0) {
    std::erase_if(joiners, [](WhisperNode* n) { return !n->is_public(); });
    rng.shuffle(joiners);
    joiners.resize(plan.probe_members - 1);
  }
  for (auto* n : joiners) {
    members[plan.probe_members > 0 ? 0 : rng.next_below(plan.groups)].push_back(n);
  }

  // --- Boot: every future member's backlog holds Π P-nodes. ---
  {
    Scoped s(tracer, "whisper.boot");
    const bool ok = sim_poll(host, plan.poll_step, kReadyCap, [&] {
      for (const auto& g : members) {
        for (auto* n : g) {
          if (n->wcl().backlog().count_public() < plan.pi) return false;
        }
      }
      return true;
    });
    if (!ok) std::fprintf(stderr, "%s: some backlogs short of Π P-nodes after warm-up\n", plan.name.c_str());
  }
  r.set("whisper.boot_s", since(g_process_start) - keygen_s, "s");
  std::fprintf(stderr, "%s: booted at %.0f virtual s, %.1f host s\n", plan.name.c_str(),
               static_cast<double>(host.now()) / 1e6, since(g_process_start));

  // --- Groups. ---
  {
    Scoped s(tracer, "ppss.join");
    for (std::size_t g = 0; g < plan.groups; ++g) {
      ppss::Ppss& leader =
          members[g][0]->create_group(gids[g], pooled_keypair(plan.group_key_base + g, kRsaBits));
      for (std::size_t i = 1; i < members[g].size(); ++i) {
        auto accr = leader.invite(members[g][i]->id());
        if (accr) members[g][i]->join_group(gids[g], *accr, leader.self_descriptor());
      }
    }
    sim_poll(host, plan.poll_step, kReadyCap, [&] {
      for (std::size_t g = 0; g < plan.groups; ++g) {
        for (auto* m : members[g]) {
          if (m->group(gids[g]) == nullptr || !m->group(gids[g])->joined()) return false;
        }
      }
      return true;
    });
  }
  r.set("ppss.join_s", tracer.total_s("ppss.join"), "s");
  std::fprintf(stderr, "%s: joined at %.0f virtual s, %.1f host s\n", plan.name.c_str(),
               static_cast<double>(host.now()) / 1e6, since(g_process_start));
  std::size_t invited = 0, joined = 0;
  for (std::size_t g = 0; g < plan.groups; ++g) {
    for (auto* m : members[g]) {
      ++invited;
      joined += m->group(gids[g]) != nullptr && m->group(gids[g])->joined() ? 1 : 0;
    }
  }
  r.check(joined == invited, "only " + std::to_string(joined) + " of " + std::to_string(invited) +
                                 " invited members joined");

  // --- T-Chord over group 0. ---
  const std::vector<WhisperNode*>& ring_nodes = members[0];
  std::vector<NodeId> ring_ids;
  for (auto* m : ring_nodes) ring_ids.push_back(m->id());
  const auto ring = build_ring(ring_ids);
  std::vector<std::unique_ptr<chord::TChord>> chords;
  std::vector<ppss::Ppss*> g0;
  {
    Scoped s(tracer, "chord.ring_converge");
    for (std::size_t i = 0; i < ring_nodes.size(); ++i) {
      g0.push_back(ring_nodes[i]->group(gids[0]));
      chords.push_back(std::make_unique<chord::TChord>(host.clock_of(ring_nodes[i]), *g0.back(),
                                                       plan.chord, Rng(plan.deploy_seed * 31 + i)));
      chords.back()->start();
    }
    const bool ok = sim_poll(host, plan.poll_step, kReadyCap, [&] {
      for (auto& c : chords) {
        const auto succ = c->successor();
        const auto pred = c->predecessor();
        if (!succ || succ->id() != expected_owner(ring, c->self_key() + 1)) return false;
        if (!pred || expected_owner(ring, pred->key + 1) != ring.at(c->self_key())) return false;
      }
      return true;
    });
    if (!ok) std::fprintf(stderr, "%s: T-Chord successors not all correct at the cap\n", plan.name.c_str());
  }
  r.set("chord.ring_converge_s", tracer.total_s("chord.ring_converge"), "s");
  r.set("keysvc.handler_s", cpu_total_s(nodes, net::CpuCategory::kKeysHandler), "s");
  const double setup_s = since(g_process_start);
  std::fprintf(stderr, "%s: ring at %.0f virtual s, %.1f host s\n", plan.name.c_str(),
               static_cast<double>(host.now()) / 1e6, setup_s);

  // --- The open loop, in virtual time. ---
  const std::size_t m_count = ring_nodes.size();
  std::vector<Op> ops = make_schedule({{Op::kMsg, plan.msg_rate},
                                       {Op::kBulk, plan.bulk_rate},
                                       {Op::kLookup, plan.lookup_rate}},
                                      plan.window, m_count, plan.seed);
  // Callbacks run on the shard owning the receiving (or querying) member;
  // each writes only its own op record or its own member slot.
  std::vector<std::uint64_t> unknown(m_count, 0);
  std::vector<std::vector<double>> exchange_rtt(m_count);
  for (std::size_t m = 0; m < m_count; ++m) {
    net::Clock* clk = &host.clock_of(ring_nodes[m]);
    g0[m]->on_app_message = [&, m, clk](const wcl::RemotePeer&, BytesView payload) {
      const auto id = payload_id(payload);
      if (!id || *id == 0 || *id > ops.size() || ops[*id - 1].kind == Op::kLookup) {
        ++unknown[m];
        return;
      }
      Op& op = ops[*id - 1];
      if (++op.deliveries > 1) return;
      op.done = clk->now();
      const std::size_t size = op.kind == Op::kBulk ? kBulkBytes : kMsgBytes;
      op.wrong = !check_delivery(plan.seed, op, size, m, payload).empty();
    };
    if (plan.trace) {
      g0[m]->on_exchange_rtt = [&, m](net::Time rtt) {
        exchange_rtt[m].push_back(static_cast<double>(rtt));
      };
    }
  }

  const net::Time t0 = host.now() + net::kSecond;
  const LayerCounters c0 = read_counters(nodes, gids);
  const auto ev0 = host.shard_events();
  const std::uint64_t sent0 = host.packets_sent(), dlv0 = host.packets_delivered();
  const std::uint64_t bytes0 = host.bytes_sent(), cross0 = host.cross_shard();
  // Host cost is charged to 30 equal chunks of the virtual window; an
  // advance that crosses a chunk boundary stops there to close the chunk.
  ChunkMeter meter(30);
  auto advance = [&](net::Time t) {
    for (;;) {
      const auto k = static_cast<net::Time>(meter.current());
      const auto n = static_cast<net::Time>(meter.chunks());
      const net::Time boundary = t0 + plan.window * (k + 1) / n;
      host.advance_to(std::min(t, boundary));
      if (t < boundary || k + 1 == n) return;
      meter.next();
      if (t == boundary) return;
    }
  };
  const std::uint64_t run_span = tracer.begin("sim.window");
  meter.start();
  for (Op& op : ops) {
    {
      Scoped s(tracer, "sim.run_for", op.id, run_span);
      advance(t0 + op.due);
    }
    if (op.kind == Op::kLookup) {
      net::Clock* clk = &host.clock_of(ring_nodes[op.src]);
      Scoped s(tracer, "chord.lookup_call", op.id, run_span);
      chords[op.src]->lookup(op.key, [&, clk, id = op.id](std::optional<chord::TChord::LookupResult> res) {
        Op& l = ops[id - 1];
        if (!res || l.done >= 0) return;
        l.done = clk->now();
        l.owner = res->owner.id().value;
        l.hops = res->hops;
        l.wrong = !check_owner(ring, l.key, res->owner.id()).empty();
      });
      continue;
    }
    const Bytes payload = make_payload(plan.seed, op.id, op.kind == Op::kBulk ? kBulkBytes : kMsgBytes);
    const auto dest = g0[op.dst]->self_descriptor();
    Scoped s(tracer, "wcl.send_call", op.id, run_span);
    if (!g0[op.src]->send_app_to(dest, payload)) op.done = -2;
  }
  {
    Scoped s(tracer, "sim.run_for", 0, run_span);
    advance(t0 + plan.window);
  }
  meter.next();
  tracer.end(run_span);
  const double sim_run_s = meter.wall_s();
  const double cpu_s = meter.cpu_s();
  r.set("sim_run_total_s", meter.total_wall_s(), "s");
  r.set("cpu_total_s", meter.total_cpu_s(), "s");
  std::fprintf(stderr, "%s: window chunk wall p10/p50/p90 %.3f/%.3f/%.3f s\n", plan.name.c_str(),
               percentile(meter.chunk_wall(), 10), percentile(meter.chunk_wall(), 50),
               percentile(meter.chunk_wall(), 90));
  const auto ev1 = host.shard_events();
  const std::uint64_t dlv1 = host.packets_delivered();
  host.run_for(plan.drain);
  const LayerCounters c1 = read_counters(nodes, gids);
  const std::uint64_t sent1 = host.packets_sent(), bytes1 = host.bytes_sent();

  // --- Outcomes and checks. ---
  std::vector<double> msg_us, bulk_us, lookup_us;
  double hop_sum = 0;
  std::size_t lookups_done = 0;
  Digest dg;
  for (const Op& op : ops) {
    dg.add(op.id);
    dg.add(static_cast<std::uint64_t>(op.done));
    dg.add(op.owner);
    dg.add(op.hops);
    dg.add(op.deliveries);
    if (op.done < 0) {
      ++r.failed;
      std::fprintf(stderr, "%s: op %llu (kind %d, member %zu -> %zu, due %.1f s) did not complete\n",
                   plan.name.c_str(), static_cast<unsigned long long>(op.id), op.kind, op.src,
                   op.dst, static_cast<double>(op.due) / 1e6);
      continue;
    }
    r.check(!op.wrong, (op.kind == Op::kLookup ? "lookup " : "message ") + std::to_string(op.id) +
                           (op.kind == Op::kLookup ? " answered by the wrong owner"
                                                   : " delivered to the wrong member or corrupted"));
    r.check(op.deliveries <= 1, "message " + std::to_string(op.id) + " delivered more than once");
    const double lat = static_cast<double>(op.done - (t0 + op.due));
    if (op.kind == Op::kMsg) msg_us.push_back(lat);
    if (op.kind == Op::kBulk) bulk_us.push_back(lat);
    if (op.kind == Op::kLookup) {
      lookup_us.push_back(lat);
      hop_sum += op.hops;
      ++lookups_done;
    }
  }
  r.attempted = ops.size();
  for (std::size_t m = 0; m < m_count; ++m) {
    r.check(unknown[m] == 0, "member " + std::to_string(m) + " received unknown payloads");
  }
  // Membership never leaks: no private view names a non-member.
  for (std::size_t g = 0; g < plan.groups; ++g) {
    std::vector<NodeId> ids;
    for (auto* m : members[g]) ids.push_back(m->id());
    for (auto* m : members[g]) {
      std::vector<NodeId> view;
      for (const auto& e : m->group(gids[g])->private_view().entries()) view.push_back(e.id());
      const auto outsiders = view_outsiders(view, ids);
      r.check(outsiders.empty(), "private view of " + m->id().str() + " in group " +
                                     gids[g].str() + " names non-member " +
                                     (outsiders.empty() ? "" : outsiders[0].str()));
    }
  }
  std::uint64_t events = 0, max_shard = 0;
  for (std::size_t s = 0; s < ev1.size(); ++s) {
    events += ev1[s] - ev0[s];
    max_shard = std::max(max_shard, ev1[s] - ev0[s]);
  }
  dg.add(events);
  dg.add(dlv1 - dlv0);
  for (auto* n : nodes) {
    dg.add(n->wcl().stats().onions_delivered);
    dg.add(n->pss().exchanges_completed());
  }
  {
    std::uint64_t rate_limited = 0, replays = 0, no_alt = 0, alt = 0;
    for (auto* m : ring_nodes) {
      rate_limited += m->group(gids[0])->stats().rate_limited;
      replays += m->group(gids[0])->stats().replays_suppressed;
      no_alt += m->wcl().stats().no_alternative;
      alt += m->wcl().stats().alternative_success;
    }
    std::fprintf(stderr,
                 "%s: group 0 members: ppss rate-limited %llu, replays %llu; wcl retried-ok %llu, "
                 "no-alternative %llu\n",
                 plan.name.c_str(), static_cast<unsigned long long>(rate_limited),
                 static_cast<unsigned long long>(replays), static_cast<unsigned long long>(alt),
                 static_cast<unsigned long long>(no_alt));
  }

  // The backlog holds Π P-nodes: a backlog short at the end of the run is
  // one whose P-node key fetch is still in flight, so it must be full again
  // 10 virtual s later. Checked on the paper's deployment only.
  if (plan.probe_members == 0) {
    std::vector<WhisperNode*> short_nodes;
    for (auto* n : nodes) {
      if (n->wcl().backlog().count_public() < plan.pi) short_nodes.push_back(n);
    }
    if (!short_nodes.empty()) host.run_for(10 * net::kSecond);
    std::size_t still_short = 0;
    for (auto* n : short_nodes) {
      if (n->wcl().backlog().count_public() < plan.pi) ++still_short;
    }
    std::fprintf(stderr, "%s: %zu backlogs short of Π at the end, %zu still short 10 s later\n",
                 plan.name.c_str(), short_nodes.size(), still_short);
    r.check(still_short == 0,
            std::to_string(still_short) + " backlogs stayed below Π P-nodes for 10 virtual s");
  }
  std::fprintf(stderr, "%s: %zu ops, %llu failed, %llu events in window, digest %016llx\n",
               plan.name.c_str(), ops.size(), static_cast<unsigned long long>(r.failed),
               static_cast<unsigned long long>(events), static_cast<unsigned long long>(dg.h));

  // --- End-to-end metrics (latencies are virtual µs). ---
  r.set("setup_s", setup_s, "s");
  r.set("msg_p50_us", percentile(msg_us, 50), "us");
  r.set("msg_p99_us", percentile(msg_us, 99), "us");
  r.set("bulk_p50_us", percentile(bulk_us, 50), "us");
  r.set("lookup_p50_us", percentile(lookup_us, 50), "us");
  r.set("cpu_s", cpu_s, "s");
  r.set("sim_run_s", sim_run_s, "s");
  r.set("peak_rss_mb", peak_rss_kib() / 1024.0, "MiB");

  // --- Per-layer metrics. ---
  const LayerCounters d = diff(c1, c0);
  const auto cat = [&](net::CpuCategory c) { return d.cpu_s[static_cast<std::size_t>(c)]; };
  const double n_ops = static_cast<double>(std::max<std::size_t>(ops.size(), 1));
  r.set("net.datagrams_per_op", static_cast<double>(sent1 - sent0) / n_ops, "count");
  r.set("net.wire_bytes_per_op", static_cast<double>(bytes1 - bytes0) / n_ops, "B");
  r.set("net.sim_packets", static_cast<double>(dlv1 - dlv0), "count");
  r.set("crypto.aes_s", cat(net::CpuCategory::kAes), "s");
  r.set("crypto.rsa_encrypt_s", cat(net::CpuCategory::kRsaEncrypt), "s");
  r.set("crypto.rsa_decrypt_s", cat(net::CpuCategory::kRsaDecrypt), "s");
  r.set("crypto.rsa_sign_s", cat(net::CpuCategory::kRsaSign), "s");
  r.set("nylon.pss_handler_s", cat(net::CpuCategory::kPssHandler), "s");
  r.set("nylon.relayed_sends", static_cast<double>(d.relayed_sends), "count");
  r.set("wcl.send_call_us", percentile(tracer.durations_us("wcl.send_call"), 50), "us");
  r.set("wcl.attempts_per_send",
        d.wcl_sends ? static_cast<double>(d.wcl_attempts) / static_cast<double>(d.wcl_sends) : 0,
        "count");
  r.set("wcl.handler_s", cat(net::CpuCategory::kWclHandler), "s");
  r.set("wcl.onions_forwarded", static_cast<double>(d.wcl_forwarded), "count");
  r.set("ppss.handler_s", cat(net::CpuCategory::kPpssHandler), "s");
  r.set("ppss.exchanges_completed", static_cast<double>(d.ppss_exchanges), "count");
  std::vector<double> rtts;
  for (const auto& v : exchange_rtt) rtts.insert(rtts.end(), v.begin(), v.end());
  r.set("ppss.exchange_rtt_p50_us", percentile(rtts, 50), "us");
  r.set("chord.hops_per_lookup", lookups_done ? hop_sum / static_cast<double>(lookups_done) : 0,
        "count");
  r.set("sim.events", static_cast<double>(events), "count");
  r.set("sim.ns_per_event", events ? sim_run_s * 1e9 / static_cast<double>(events) : 0, "ns");
  r.set("sim.cross_shard_msgs", static_cast<double>(host.cross_shard() - cross0), "count");
  r.set("sim.shard_imbalance",
        events ? static_cast<double>(max_shard) * static_cast<double>(ev1.size()) /
                     static_cast<double>(events)
               : 0,
        "ratio");
  r.set("whisper.rss_kib_per_node", peak_rss_kib() / static_cast<double>(nodes.size()), "KiB");

  if (plan.trace) {
    crypto_timings(r, tracer, 3, kRsaBits);
    tracer.write_run(plan.name, plan.seed);
  }
  return dg.h;
}

/// Generate the pooled keys [0, count): node keys, then group keys.
double warm_keys(std::size_t count) {
  const auto t0 = SteadyClock::now();
  for (std::size_t i = 0; i < count; ++i) pooled_keypair(i, kRsaBits);
  return since(t0);
}

}  // namespace

/// sim_paper at a given population (the self-test runs it small).
std::uint64_t sim_paper_at(const Options& o, Result& r, std::size_t nodes, std::size_t groups,
                        double virtual_s_per_s) {
  Plan plan;
  plan.name = "sim_paper";
  plan.groups = groups;
  plan.window = static_cast<net::Time>(o.seconds * virtual_s_per_s * 1e6);
  plan.msg_rate = 4;
  plan.bulk_rate = 0.5;
  plan.lookup_rate = 0.5;
  plan.chord.cycle = 10 * net::kSecond;
  plan.chord.lookup_timeout = 10 * net::kSecond;
  plan.seed = o.seed;
  plan.trace = o.trace;
  plan.group_key_base = nodes;
  const double keygen_s = warm_keys(nodes + groups);

  TestbedConfig cfg;
  cfg.initial_nodes = nodes;
  cfg.natted_fraction = 0.7;
  cfg.latency = "cluster";
  cfg.node.pss.pi_min_public = plan.pi;
  cfg.node.wcl.pi = plan.pi;
  cfg.node.ppss.cycle = 30 * net::kSecond;
  cfg.seed = plan.deploy_seed;
  ClassicHost host(cfg);
  return drive(host, plan, r, keygen_s);
}

std::uint64_t sim_scale_at(const Options& o, Result& r, std::size_t nodes, std::size_t shards,
                        double virtual_s_per_s, std::string* metrics_jsonl) {
  Plan plan;
  plan.name = "sim_scale";
  plan.groups = 1;
  plan.probe_members = 12;
  plan.window = static_cast<net::Time>(o.seconds * virtual_s_per_s * 1e6);
  plan.poll_step = 2 * net::kSecond;
  plan.drain = 10 * net::kSecond;
  plan.msg_rate = 20;
  plan.bulk_rate = 5;
  plan.lookup_rate = 5;
  plan.chord.cycle = 2 * net::kSecond;
  plan.chord.lookup_timeout = 4 * net::kSecond;
  plan.seed = o.seed;
  plan.trace = o.trace;
  constexpr std::size_t kKeyCycle = 2048;
  plan.group_key_base = std::min(nodes, kKeyCycle);
  const double keygen_s = warm_keys(plan.group_key_base + 1);

  ScaleConfig cfg;
  cfg.initial_nodes = nodes;
  cfg.shards = shards;
  cfg.natted_fraction = 0.7;
  cfg.latency = "planetlab";
  cfg.node.pss.pi_min_public = plan.pi;
  cfg.node.wcl.pi = plan.pi;
  cfg.node.ppss.cycle = 5 * net::kSecond;
  cfg.node.ppss.response_timeout = 3 * net::kSecond;
  cfg.node_telemetry = false;
  cfg.key_cycle = kKeyCycle;
  cfg.seed = plan.deploy_seed;
  ShardedHost host(cfg);
  const std::uint64_t digest = drive(host, plan, r, keygen_s);
  // Population check: every node alive, with a non-empty view naming only
  // nodes that exist.
  const std::size_t n = host.testbed().node_count();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    WhisperNode* node = host.testbed().node_at(i);
    if (node == nullptr || !node->running() || node->pss().view().empty()) {
      ++bad;
      continue;
    }
    for (const auto& e : node->pss().view().entries()) {
      if (e.id().value == 0 || e.id().value > n) {
        ++bad;
        break;
      }
    }
  }
  r.check(bad == 0, std::to_string(bad) + " nodes dead, with an empty view, or naming unknown nodes");
  if (metrics_jsonl) *metrics_jsonl = host.testbed().merged_metrics_jsonl();
  return digest;
}

int run_sim_paper(const Options& o, Result& r) {
  sim_paper_at(o, r, 1000, 8, 50);
  return 0;
}

int run_sim_scale(const Options& o, Result& r) {
  sim_scale_at(o, r, 20000, 2, 4, nullptr);
  return 0;
}

}  // namespace perfbench
