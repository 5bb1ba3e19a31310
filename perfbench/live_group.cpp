// live_group: the middleware as an application uses it, on real UDP sockets.
//
// One UdpMesh (one epoll loop, one loopback socket per node) of 16 nodes
// with realtime_node_config(); 12 of them form one private group and build a
// T-Chord ring over it. An open loop then runs for the window between
// random member pairs: 64 B messages at 200/s, 16 KiB messages at 10/s and
// T-Chord lookups at 10/s. Every operation is timed from its due time.
// The deployment (mesh, members, T-Chord draws) is fixed; --seed draws only
// the traffic.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "common.hpp"
#include "common/rng.hpp"
#include "whisper/keypool.hpp"
#include "whisper/realnet.hpp"

namespace perfbench {

namespace {

using namespace whisper;

constexpr std::size_t kNodes = 16;
constexpr std::size_t kMembers = 12;
constexpr std::size_t kMsgBytes = 64;
constexpr std::size_t kBulkBytes = 16 * 1024;
constexpr std::size_t kRsaBits = 512;
constexpr std::size_t kGroupKeyIndex = kNodes;  // the pooled key after the nodes' keys
const GroupId kGroup{7};
/// Seed of the deployment: mesh, group members and T-Chord draws.
constexpr std::uint64_t kDeploySeed = 7;

/// Pump the loop until `ready()` holds; false after `limit_s` wall seconds.
bool poll_until(UdpMesh& mesh, double limit_s, const std::function<bool()>& ready) {
  const auto t0 = SteadyClock::now();
  while (!ready()) {
    if (since(t0) > limit_s) return false;
    mesh.run_for(10 * net::kMillisecond);
  }
  return true;
}

std::size_t payload_size(const Op& op) { return op.kind == Op::kBulk ? kBulkBytes : kMsgBytes; }

}  // namespace

int run_live_group(const Options& o, Result& r) {
  Tracer tracer(o.trace);
  Rng rng(kDeploySeed);

  // --- Set-up: keys, mesh, group, ring. Readiness is polled. ---
  {
    Scoped s(tracer, "crypto.keygen");
    for (std::size_t i = 0; i < kNodes; ++i) pooled_keypair(i, kRsaBits);
    pooled_keypair(kGroupKeyIndex, kRsaBits);
  }
  r.set("crypto.keygen_s", tracer.total_s("crypto.keygen"), "s");

  UdpMesh::Config mcfg;
  mcfg.seed = kDeploySeed;
  UdpMesh mesh(mcfg);
  const NodeConfig& ncfg = mcfg.node;
  std::vector<WhisperNode*> nodes;
  {
    Scoped s(tracer, "whisper.boot");
    for (std::size_t i = 0; i < kNodes; ++i) {
      WhisperNode* n = mesh.spawn_node();
      if (n == nullptr) {
        std::fprintf(stderr, "live_group: cannot bind a loopback socket: %s\n",
                     mesh.backend().last_error().c_str());
        return 1;
      }
      nodes.push_back(n);
    }
    // Every backlog must hold Π P-nodes before WCL paths can be built.
    const bool ok = poll_until(mesh, 30, [&] {
      return std::all_of(nodes.begin(), nodes.end(), [&](WhisperNode* n) {
        return n->wcl().backlog().count_public() >= ncfg.wcl.pi;
      });
    });
    if (!ok) {
      std::fprintf(stderr, "live_group: backlogs did not reach Π P-nodes in 30 s\n");
      return 1;
    }
  }
  r.set("whisper.boot_s", tracer.total_s("whisper.boot"), "s");

  std::vector<WhisperNode*> members = nodes;
  rng.shuffle(members);
  members.resize(kMembers);
  std::vector<NodeId> member_ids;
  for (auto* m : members) member_ids.push_back(m->id());
  std::vector<ppss::Ppss*> groups;
  {
    Scoped s(tracer, "ppss.join");
    ppss::Ppss& leader = members[0]->create_group(kGroup, pooled_keypair(kGroupKeyIndex, kRsaBits));
    groups.push_back(&leader);
    for (std::size_t i = 1; i < kMembers; ++i) {
      auto accr = leader.invite(members[i]->id());
      if (!accr) {
        std::fprintf(stderr, "live_group: leader refused an invitation\n");
        return 1;
      }
      groups.push_back(&members[i]->join_group(kGroup, *accr, leader.self_descriptor()));
    }
    const bool ok = poll_until(mesh, 30, [&] {
      return std::all_of(groups.begin(), groups.end(), [](ppss::Ppss* g) {
        return g->joined() && g->private_view().size() >= 3;
      });
    });
    if (!ok) {
      std::fprintf(stderr, "live_group: members did not join in 30 s\n");
      return 1;
    }
  }
  r.set("ppss.join_s", tracer.total_s("ppss.join"), "s");

  const auto ring = build_ring(member_ids);
  chord::TChordConfig tcfg;
  tcfg.cycle = 250 * net::kMillisecond;
  tcfg.lookup_timeout = 2 * net::kSecond;
  tcfg.lookup_retries = 1;
  std::vector<std::unique_ptr<chord::TChord>> chords;
  {
    Scoped s(tracer, "chord.ring_converge");
    for (std::size_t i = 0; i < kMembers; ++i) {
      chords.push_back(std::make_unique<chord::TChord>(mesh.clock(), *groups[i], tcfg,
                                                       Rng(kDeploySeed * 31 + i)));
      chords.back()->start();
    }
    const bool ok = poll_until(mesh, 30, [&] {
      for (std::size_t i = 0; i < kMembers; ++i) {
        const auto self_key = chords[i]->self_key();
        const auto succ = chords[i]->successor();
        const auto pred = chords[i]->predecessor();
        if (!succ || succ->id() != expected_owner(ring, self_key + 1)) return false;
        // Ownership is (predecessor, self]: a stale predecessor answers for
        // keys that belong to another member.
        if (!pred || expected_owner(ring, pred->key + 1) != member_ids[i]) return false;
      }
      return true;
    });
    if (!ok) {
      std::fprintf(stderr, "live_group: T-Chord ring did not converge in 30 s\n");
      return 1;
    }
  }
  r.set("chord.ring_converge_s", tracer.total_s("chord.ring_converge"), "s");
  r.set("keysvc.handler_s", cpu_total_s(nodes, net::CpuCategory::kKeysHandler), "s");
  const double setup_s = since(g_process_start);

  // --- The open loop. ---
  const auto window_us = static_cast<std::int64_t>(o.seconds * 1e6);
  std::vector<Op> ops = make_schedule(
      {{Op::kMsg, 200.0}, {Op::kBulk, 10.0}, {Op::kLookup, 10.0}}, window_us, kMembers, o.seed);
  std::vector<std::uint64_t> op_span(ops.size() + 1, 0);
  std::vector<std::string> wrong;
  for (std::size_t m = 0; m < kMembers; ++m) {
    groups[m]->on_app_message = [&, m](const wcl::RemotePeer&, BytesView payload) {
      const auto id = payload_id(payload);
      if (!id || *id == 0 || *id > ops.size() || ops[*id - 1].kind == Op::kLookup) {
        wrong.push_back("member " + std::to_string(m) + " received an unknown payload");
        return;
      }
      Op& op = ops[*id - 1];
      if (++op.deliveries > 1) return;
      op.done = mesh.clock().now();
      tracer.end(op_span[op.id]);
      const std::string bad = check_delivery(o.seed, op, payload_size(op), m, payload);
      if (!bad.empty()) {
        op.wrong = true;
        wrong.push_back(bad);
      }
    };
  }

  std::vector<double> exchange_rtt_us;
  if (o.trace) {
    for (auto* g : groups) {
      g->on_exchange_rtt = [&](net::Time rtt) { exchange_rtt_us.push_back(static_cast<double>(rtt)); };
    }
  }

  const net::Time lead = 20 * net::kMillisecond;
  const net::Time t0 = mesh.clock().now() + lead;
  std::vector<double> lateness_us;
  std::size_t next = 0;
  auto issue = [&](Op& op) {
    op_span[op.id] = tracer.begin(op.kind == Op::kLookup ? "op.lookup" : "op.message", op.id);
    if (op.kind == Op::kLookup) {
      Scoped s(tracer, "chord.lookup_call", op.id, op_span[op.id]);
      chords[op.src]->lookup(op.key, [&, id = op.id](std::optional<chord::TChord::LookupResult> res) {
        Op& l = ops[id - 1];
        if (!res) l.done = -3;  // timed out after its retry
        if (!res || l.done >= 0) return;
        l.done = mesh.clock().now();
        l.owner = res->owner.id().value;
        l.hops = res->hops;
        tracer.end(op_span[id]);
        const std::string bad = check_owner(ring, l.key, res->owner.id());
        if (!bad.empty()) {
          l.wrong = true;
          wrong.push_back("lookup " + std::to_string(id) + ": " + bad);
        }
      });
      return;
    }
    const Bytes payload = make_payload(o.seed, op.id, payload_size(op));
    const auto dest = groups[op.dst]->self_descriptor();
    Scoped s(tracer, "wcl.send_call", op.id, op_span[op.id]);
    if (!groups[op.src]->send_app_to(dest, payload)) op.done = -2;  // refused outright
  };
  std::function<void()> tick = [&] {
    const net::Time now = mesh.clock().now();
    while (next < ops.size() && t0 + ops[next].due <= now) {
      lateness_us.push_back(static_cast<double>(now - (t0 + ops[next].due)));
      issue(ops[next++]);
    }
    if (next < ops.size()) mesh.clock().schedule_at(t0 + ops[next].due, tick);
  };
  mesh.clock().schedule_at(t0, tick);

  // Traced-only probes: raw UDP ping-pong on two extra sockets of the same
  // loop, and WCL confidential sends timed to their ACK at a low rate.
  std::vector<double> udp_rtt_us, ack_rtt_us;
  std::function<void()> ping, ack_probe;
  std::optional<Endpoint> pa, pb;
  net::Time ping_sent = 0;
  Rng probe_rng(o.seed ^ 0xac4);
  const net::Time t_end = t0 + window_us;
  if (o.trace) {
    pa = mesh.backend().reserve_endpoint();
    pb = mesh.backend().reserve_endpoint();
    if (!pa || !pb) {
      std::fprintf(stderr, "live_group: cannot bind probe sockets\n");
      return 1;
    }
    mesh.backend().attach(*pb, [&](const net::Datagram& d) {
      mesh.backend().send(*pb, d.src, d.payload, net::Proto::kApp);
    });
    mesh.backend().attach(*pa, [&](const net::Datagram&) {
      udp_rtt_us.push_back(static_cast<double>(mesh.clock().now() - ping_sent));
    });
    ping = [&] {
      if (mesh.clock().now() >= t_end) return;
      ping_sent = mesh.clock().now();
      mesh.backend().send(*pa, *pb, Bytes(kMsgBytes, 0x5a), net::Proto::kApp);
      mesh.clock().schedule_after(50 * net::kMillisecond, ping);
    };
    mesh.clock().schedule_at(t0 + 7 * net::kMillisecond, ping);
    ack_probe = [&] {
      if (mesh.clock().now() >= t_end) return;
      const std::size_t a = probe_rng.next_below(kMembers);
      const std::size_t b = (a + 1 + probe_rng.next_below(kMembers - 1)) % kMembers;
      // Group id 0 names no group: the destination acks and drops it.
      Bytes payload(kMsgBytes, 0);
      const net::Time sent = mesh.clock().now();
      members[a]->wcl().send_confidential(members[b]->wcl().self_peer(), payload,
                                          [&, sent](wcl::SendOutcome out) {
                                            if (out == wcl::SendOutcome::kSuccessFirstTry) {
                                              ack_rtt_us.push_back(static_cast<double>(
                                                  mesh.clock().now() - sent));
                                            }
                                          });
      mesh.clock().schedule_after(200 * net::kMillisecond, ack_probe);
    };
    mesh.clock().schedule_at(t0 + 13 * net::kMillisecond, ack_probe);
  }

  const LayerCounters c0 = read_counters(nodes, {kGroup});
  const std::uint64_t sent0 = mesh.backend().packets_sent();
  const std::uint64_t bytes0 = mesh.backend().bytes_sent();
  // CPU time is charged to 30 equal wall-time chunks of the window.
  ChunkMeter meter(30);
  mesh.clock().schedule_at(t0, [&] { meter.start(); });
  for (std::size_t k = 1; k < meter.chunks(); ++k) {
    mesh.clock().schedule_at(t0 + window_us * static_cast<net::Time>(k) /
                                      static_cast<net::Time>(meter.chunks()),
                             [&] { meter.next(); });
  }
  mesh.run_for(t_end - mesh.clock().now());
  meter.next();
  const double cpu_s = meter.cpu_s();
  r.set("cpu_total_s", meter.total_cpu_s(), "s");

  // Drain: lookups time out after 2 s plus one retry, so 5 s covers them.
  auto settled = [&] {
    return std::all_of(ops.begin(), ops.end(), [](const Op& op) { return op.done != -1; });
  };
  poll_until(mesh, 5, settled);
  const LayerCounters c1 = read_counters(nodes, {kGroup});
  const std::uint64_t sent1 = mesh.backend().packets_sent();
  const std::uint64_t bytes1 = mesh.backend().bytes_sent();

  // --- Outcomes. ---
  std::vector<double> msg_us, bulk_us, lookup_us, hops;
  net::Time last_done = t0;
  for (const Op& op : ops) {
    if (op.done < 0) {
      ++r.failed;
      continue;
    }
    const double lat = static_cast<double>(op.done - (t0 + op.due));
    last_done = std::max<net::Time>(last_done, op.done);
    if (op.kind == Op::kMsg) msg_us.push_back(lat);
    if (op.kind == Op::kBulk) bulk_us.push_back(lat);
    if (op.kind == Op::kLookup) {
      lookup_us.push_back(lat);
      hops.push_back(op.hops);
    }
  }
  r.attempted = ops.size();
  for (const auto& w : wrong) r.check(false, w);
  for (const Op& op : ops) {
    r.check(op.deliveries <= 1, "message " + std::to_string(op.id) + " delivered " +
                                    std::to_string(op.deliveries) + " times");
  }

  // Every path crosses `mixes` mixes: with gossip stopped and in-flight
  // onions drained, Σ forwarded = mixes × Σ delivered, on a window that
  // saw no retry, loss or expiry.
  for (auto& c : chords) c->stop();
  for (auto* g : groups) g->stop();
  mesh.run_for(300 * net::kMillisecond);
  const LayerCounters cend = read_counters(nodes, {kGroup});
  if (cend.wcl_unclean == 0) {
    r.check(cend.wcl_forwarded == ncfg.wcl.mixes * cend.wcl_delivered,
            "onions forwarded " + std::to_string(cend.wcl_forwarded) + " != " +
                std::to_string(ncfg.wcl.mixes) + " x delivered " +
                std::to_string(cend.wcl_delivered));
  } else {
    std::fprintf(stderr, "live_group: %llu retries/losses seen, path-length check skipped\n",
                 static_cast<unsigned long long>(cend.wcl_unclean));
  }

  std::fprintf(stderr,
               "live_group: %zu ops, %llu failed; msg p90/p95/p99/p99.9 %.0f/%.0f/%.0f/%.0f us; "
               "generator lateness p50 %.0f us, max %.0f us; onions fwd %llu dlv %llu\n",
               ops.size(), static_cast<unsigned long long>(r.failed), percentile(msg_us, 90),
               percentile(msg_us, 95), percentile(msg_us, 99), percentile(msg_us, 99.9),
               percentile(lateness_us, 50), percentile(lateness_us, 100),
               static_cast<unsigned long long>(cend.wcl_forwarded),
               static_cast<unsigned long long>(cend.wcl_delivered));

  // --- End-to-end metrics. ---
  r.set("setup_s", setup_s, "s");
  r.set("msg_p50_us", percentile(msg_us, 50), "us");
  r.set("msg_p99_us", percentile(msg_us, 99), "us");
  r.set("bulk_p50_us", percentile(bulk_us, 50), "us");
  r.set("lookup_p50_us", percentile(lookup_us, 50), "us");
  r.set("cpu_s", cpu_s, "s");
  r.set("sim_run_s", static_cast<double>(last_done - t0) / 1e6, "s");
  r.set("peak_rss_mb", peak_rss_kib() / 1024.0, "MiB");

  // --- Per-layer metrics (meaningful in the traced run). ---
  const LayerCounters d = diff(c1, c0);
  const auto cat = [&](net::CpuCategory c) { return d.cpu_s[static_cast<std::size_t>(c)]; };
  const double n_ops = static_cast<double>(ops.size());
  r.set("net.udp_rtt_p50_us", percentile(udp_rtt_us, 50), "us");
  r.set("net.datagrams_per_op", static_cast<double>(sent1 - sent0) / n_ops, "count");
  r.set("net.wire_bytes_per_op", static_cast<double>(bytes1 - bytes0) / n_ops, "B");
  r.set("crypto.aes_s", cat(net::CpuCategory::kAes), "s");
  r.set("crypto.rsa_encrypt_s", cat(net::CpuCategory::kRsaEncrypt), "s");
  r.set("crypto.rsa_decrypt_s", cat(net::CpuCategory::kRsaDecrypt), "s");
  r.set("crypto.rsa_sign_s", cat(net::CpuCategory::kRsaSign), "s");
  r.set("nylon.pss_handler_s", cat(net::CpuCategory::kPssHandler), "s");
  r.set("nylon.relayed_sends", static_cast<double>(d.relayed_sends), "count");
  r.set("wcl.ack_rtt_p50_us", percentile(ack_rtt_us, 50), "us");
  r.set("wcl.send_call_us", percentile(tracer.durations_us("wcl.send_call"), 50), "us");
  r.set("wcl.attempts_per_send",
        d.wcl_sends ? static_cast<double>(d.wcl_attempts) / static_cast<double>(d.wcl_sends) : 0,
        "count");
  r.set("wcl.handler_s", cat(net::CpuCategory::kWclHandler), "s");
  r.set("wcl.onions_forwarded", static_cast<double>(d.wcl_forwarded), "count");
  r.set("ppss.handler_s", cat(net::CpuCategory::kPpssHandler), "s");
  r.set("ppss.exchanges_completed", static_cast<double>(d.ppss_exchanges), "count");
  r.set("ppss.exchange_rtt_p50_us", percentile(exchange_rtt_us, 50), "us");
  double hop_sum = 0;
  for (double h : hops) hop_sum += h;
  r.set("chord.hops_per_lookup", hops.empty() ? 0 : hop_sum / static_cast<double>(hops.size()),
        "count");
  r.set("whisper.rss_kib_per_node", peak_rss_kib() / static_cast<double>(kNodes), "KiB");

  if (o.trace) {
    crypto_timings(r, tracer, ncfg.wcl.mixes + 1, kRsaBits);
    tracer.write_run("live_group", o.seed);
  }
  return 0;
}

}  // namespace perfbench
