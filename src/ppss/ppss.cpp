#include "ppss/ppss.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"

namespace whisper::ppss {

namespace {
constexpr std::uint8_t kKindGossipReq = 1;
constexpr std::uint8_t kKindGossipResp = 2;
constexpr std::uint8_t kKindJoinReq = 3;
constexpr std::uint8_t kKindJoinResp = 4;
constexpr std::uint8_t kKindPing = 5;
constexpr std::uint8_t kKindPong = 6;
constexpr std::uint8_t kKindApp = 7;

/// Largest rotation announcement a gossip frame may carry: group id +
/// epoch + serialized public key + announcer id, with headroom.
constexpr std::size_t kMaxRotationBytes = crypto::kMaxKeyWireBytes + 64;

/// Fingerprint of a frame for replay suppression: the claimed sender, the
/// frame kind, and its sequence number / nonce. Join frames never go
/// through this (retries resend identical bytes on purpose).
std::uint64_t frame_fingerprint(NodeId node, std::uint8_t kind, std::uint64_t seq) {
  Writer w;
  w.node_id(node);
  w.u8(kind);
  w.u64(seq);
  return crypto::fingerprint64(w.data());
}

std::uint64_t election_hash(NodeId node, std::uint64_t epoch) {
  Writer w;
  w.node_id(node);
  w.u64(epoch);
  return crypto::fingerprint64(w.data());
}

}  // namespace

void PrivateEntry::serialize(Writer& w) const {
  peer.serialize(w);
  w.u32(age);
}

std::optional<PrivateEntry> PrivateEntry::deserialize(Reader& r) {
  PrivateEntry e;
  auto peer = wcl::RemotePeer::deserialize(r);
  if (!peer) return std::nullopt;
  e.peer = std::move(*peer);
  e.age = r.u32();
  if (!r.ok()) return std::nullopt;
  return e;
}

Ppss::Ppss(net::Clock& clock, wcl::Wcl& wcl, NodeId self, GroupId group, net::CpuMeter& cpu,
           PpssConfig config, Rng rng, telemetry::Scope telemetry)
    : clock_(clock), wcl_(wcl), self_(self), group_(group), cpu_(cpu), config_(config), rng_(rng),
      drbg_(rng_.next_u64()), keyring_(group), view_(config.view_size),
      verified_passports_(config.passport_cache), replay_window_(config.replay_window),
      guard_(PeerGuardConfig{config.peer_rate_per_sec, config.peer_rate_burst,
                             /*decode_fail_threshold=*/3, config.guard_max_peers}),
      tel_(telemetry),
      m_initiated_(tel_.counter("ppss.exchanges.initiated")),
      m_completed_(tel_.counter("ppss.exchanges.completed")),
      m_timed_out_(tel_.counter("ppss.exchanges.timed_out")),
      m_passport_checks_(tel_.counter("ppss.passport.checks")),
      m_passport_bad_(tel_.counter("ppss.passport.bad")),
      m_joins_served_(tel_.counter("ppss.joins.served")),
      m_decode_rejects_(tel_.counter("ppss.decode.rejects")),
      m_replays_(tel_.counter("ppss.replay.suppressed")),
      m_rate_limited_(tel_.counter("ppss.rate.limited")),
      // PPSS exchanges ride multi-hop WCL routes: RTTs from tens of ms up
      // to the paper's multi-second Fig. 7 tail.
      m_rtt_(tel_.histogram("ppss.exchange.rtt_us",
                            telemetry::BucketSpec::log_spaced(1'000, 60'000'000))),
      m_view_size_(tel_.histogram("ppss.view.size",
                                  telemetry::BucketSpec::linear(0, 64, 64))) {
  // Incarnation-scoped counters (DESIGN.md §14): a restarted process must
  // not reuse seqs/nonces its previous life already spent, or peers'
  // replay-suppression windows drop its first frames as duplicates. Join
  // frames are exempt from suppression, which is why a rejoin gets through
  // even before this scoping matters.
  next_seq_ = (static_cast<std::uint32_t>(config_.incarnation & 0xffu) << 24) | 1u;
  next_app_nonce_ =
      (static_cast<std::uint64_t>(config_.incarnation) << 32) | 1u;
}

Ppss::~Ppss() { stop(); }

void Ppss::found_group(crypto::RsaKeyPair group_key) {
  keyring_.add_epoch(1, group_key.pub);
  passport_ = issue_passport(group_, 1, self_, group_key);
  group_key_ = std::move(group_key);
  last_heartbeat_seen_ = clock_.now();
}

std::optional<Accreditation> Ppss::invite(NodeId node) const {
  if (!group_key_) return std::nullopt;
  return issue_accreditation(group_, keyring_.latest_epoch(), node, *group_key_);
}

void Ppss::join(const Accreditation& accreditation, const wcl::RemotePeer& entry_point) {
  pending_join_ = PendingJoin{accreditation, entry_point, 0, 0};
  send_join_request();
}

void Ppss::resume(const std::vector<std::pair<std::uint64_t, crypto::RsaPublicKey>>& epochs,
                  const Passport& passport, std::optional<crypto::RsaKeyPair> group_key) {
  for (const auto& [epoch, key] : epochs) keyring_.add_epoch(epoch, key);
  if (group_key) {
    // Leader restore: the private key must actually match an epoch we
    // recorded, otherwise the store is inconsistent — refuse leadership.
    if (auto latest = keyring_.key_for(keyring_.latest_epoch());
        latest && *latest == group_key->pub) {
      group_key_ = std::move(*group_key);
    }
  }
  // The passport only counts if the restored keyring vouches for it.
  if (!passport.signature.empty() && keyring_.verify_passport(passport)) {
    passport_ = passport;
    last_heartbeat_seen_ = clock_.now();
  }
}

void Ppss::send_join_request() {
  if (!pending_join_) return;
  PendingJoin& pj = *pending_join_;
  if (pj.attempts >= config_.join_max_retries) {
    pending_join_.reset();
    return;
  }
  ++pj.attempts;

  Writer w;
  w.group_id(group_);
  w.u8(kKindJoinReq);
  pj.accreditation.serialize(w);
  wcl::RemotePeer self_desc = wcl_.self_peer();
  self_desc.serialize(w);
  if (telemetry::FlightRecorder* fr = tel_.flight();
      fr != nullptr && fr->enabled() && pj.trace_root == 0) {
    pj.trace_root =
        fr->new_root(telemetry::TraceLayer::kPpss, self_.value, "group=" + group_.str());
  }
  {
    telemetry::TraceContext root_ctx;
    root_ctx.root = pj.trace_root;
    telemetry::ScopedTraceContext guard(tel_.flight(), root_ctx);
    wcl_.send_confidential(pj.entry_point, w.data());
  }

  pj.retry_timer = clock_.schedule_after(config_.response_timeout, [this] {
    if (pending_join_) send_join_request();
  });
}

void Ppss::start() {
  if (running_) return;
  running_ = true;
  last_heartbeat_seen_ = clock_.now();
  cycle_timer_ = clock_.schedule_after(rng_.next_below(config_.cycle), [this] { on_cycle(); });
  pcp_timer_ = clock_.schedule_after(config_.pcp_refresh, [this] { on_pcp_refresh(); });
}

void Ppss::on_pcp_refresh() {
  if (!running_) return;
  pcp_timer_ = clock_.schedule_after(config_.pcp_refresh, [this] { on_pcp_refresh(); });
  // Ping every pinned peer to refresh the helper sets used to reach it.
  for (auto&& [id, pinned] : pcp_) {
    const std::uint32_t seq = next_seq_++;
    Writer w;
    w.group_id(group_);
    w.u8(kKindPing);
    w.u32(seq);
    passport_.serialize(w);
    self_entry().serialize(w);
    wcl_.send_confidential(pinned.peer, w.data());
    pending_pings_[seq] = id;
    ++pinned.missed_pings;
  }
  // Drop peers that stopped answering.
  erase_if(pcp_, [](const auto& kv) { return kv.second.missed_pings > 3; });
}

void Ppss::stop() {
  if (!running_) return;
  running_ = false;
  if (cycle_timer_ != 0) clock_.cancel(cycle_timer_);
  if (pcp_timer_ != 0) clock_.cancel(pcp_timer_);
  for (auto&& [seq, p] : pending_) {
    if (p.timeout_timer != 0) clock_.cancel(p.timeout_timer);
  }
  pending_.clear();
  if (pending_join_ && pending_join_->retry_timer != 0) {
    clock_.cancel(pending_join_->retry_timer);
  }
  pending_join_.reset();
}

PrivateEntry Ppss::self_entry() {
  PrivateEntry e;
  e.peer = wcl_.self_peer();
  e.age = 0;
  return e;
}

Ppss::GossipMeta Ppss::current_meta() {
  GossipMeta meta;
  meta.leader_epoch = keyring_.latest_epoch();
  if (is_leader()) {
    meta.heartbeat_age_us = 0;
    last_heartbeat_seen_ = clock_.now();
  } else {
    meta.heartbeat_age_us = clock_.now() - std::min(last_heartbeat_seen_, clock_.now());
  }
  meta.proposal_hash = election_proposal_hash_;
  meta.proposal_node = election_proposal_node_;
  return meta;
}

Bytes Ppss::make_rotation_announcement() {
  // Signed by the new leader's node key. Members trust it because the
  // announcing node carries the winning election hash (nodes are honest-
  // but-curious; they follow the protocol).
  Writer w;
  w.group_id(group_);
  w.u64(keyring_.latest_epoch());
  auto key = keyring_.key_for(keyring_.latest_epoch());
  w.bytes(key ? key->serialize() : Bytes{});
  w.node_id(self_);
  return std::move(w).take();
}

void Ppss::absorb_meta(const GossipMeta& meta) {
  // Heartbeat freshness: the sender saw a leader heartbeat_age_us ago.
  const net::Time implied = clock_.now() - std::min<std::uint64_t>(meta.heartbeat_age_us, clock_.now());
  last_heartbeat_seen_ = std::max(last_heartbeat_seen_, implied);

  // Election aggregation: keep the max proposal.
  if (meta.proposal_hash > election_proposal_hash_) {
    election_proposal_hash_ = meta.proposal_hash;
    election_proposal_node_ = meta.proposal_node;
    election_stable_count_ = 0;
  }
}

void Ppss::absorb_rotation(const GossipMeta& meta) {
  // Key rotation: adopt newer epochs.
  if (!meta.rotation.empty() && meta.leader_epoch > keyring_.latest_epoch()) {
    Reader r(meta.rotation);
    const GroupId g = r.group_id();
    const std::uint64_t epoch = r.u64();
    auto key = crypto::RsaPublicKey::deserialize(r.bytes(crypto::kMaxKeyWireBytes));
    const NodeId announcer = r.node_id();
    if (r.expect_done() && g == group_ && key && epoch == meta.leader_epoch) {
      keyring_.add_epoch(epoch, *key);
      last_heartbeat_seen_ = clock_.now();
      election_proposal_hash_ = 0;
      election_proposal_node_ = NodeId{};
      election_stable_count_ = 0;
      (void)announcer;
    }
  }
}

void Ppss::maybe_elect() {
  if (is_leader()) return;
  if (clock_.now() < last_heartbeat_seen_ + config_.leader_timeout) {
    // Leader alive: no election.
    election_proposal_hash_ = 0;
    election_proposal_node_ = NodeId{};
    election_stable_count_ = 0;
    return;
  }
  ++stats_.elections_observed;
  // Propose our own hash if it beats everything seen.
  const std::uint64_t own = election_hash(self_, keyring_.latest_epoch() + 1);
  if (own > election_proposal_hash_) {
    election_proposal_hash_ = own;
    election_proposal_node_ = self_;
    election_stable_count_ = 0;
  } else {
    ++election_stable_count_;
  }
  // Converged and we are the winner: rotate the group key.
  if (election_proposal_node_ == self_ &&
      election_stable_count_ >= config_.election_stable_cycles) {
    crypto::RsaKeyPair new_key =
        crypto::RsaKeyPair::generate(keyring_.key_for(keyring_.latest_epoch())
                                         ? keyring_.key_for(keyring_.latest_epoch())->n.bit_length()
                                         : 512,
                                     drbg_);
    const std::uint64_t new_epoch = keyring_.latest_epoch() + 1;
    keyring_.add_epoch(new_epoch, new_key.pub);
    passport_ = issue_passport(group_, new_epoch, self_, new_key);
    group_key_ = std::move(new_key);
    last_heartbeat_seen_ = clock_.now();
    election_proposal_hash_ = 0;
    election_proposal_node_ = NodeId{};
    election_stable_count_ = 0;
    ++stats_.elections_won;
  }
}

Bytes Ppss::encode_gossip(std::uint8_t kind, std::uint32_t seq,
                          const std::vector<PrivateEntry>& buffer) {
  Writer w;
  w.group_id(group_);
  w.u8(kind);
  w.u32(seq);
  passport_.serialize(w);
  // Gossip metadata (leader liveness / election / rotation).
  GossipMeta meta = current_meta();
  w.u64(meta.leader_epoch);
  w.u64(meta.heartbeat_age_us);
  w.u64(meta.proposal_hash);
  w.node_id(meta.proposal_node);
  if (is_leader()) {
    w.bytes(make_rotation_announcement());
  } else {
    w.bytes(Bytes{});
  }
  w.u16(static_cast<std::uint16_t>(buffer.size()));
  for (const auto& e : buffer) e.serialize(w);
  return std::move(w).take();
}

void Ppss::on_cycle() {
  if (!running_) return;
  cycle_timer_ = clock_.schedule_after(config_.cycle, [this] { on_cycle(); });
  if (!joined()) return;

  maybe_elect();
  view_.age_all();
  view_.expire_older_than(config_.max_entry_age);
  // Private-view health: the fill distribution over cycles and members.
  m_view_size_.observe(static_cast<double>(view_.size()));
  const PrivateEntry* partner = view_.oldest();
  if (partner == nullptr) return;

  const std::uint32_t seq = next_seq_++;
  const wcl::RemotePeer partner_peer = partner->peer;
  // Swap the partner out; it returns fresh in the response buffer.
  view_.remove(partner_peer.card.id);

  std::vector<PrivateEntry> buffer;
  buffer.push_back(self_entry());
  auto subset = view_.random_subset(config_.gossip_size - 1, rng_);
  buffer.insert(buffer.end(), subset.begin(), subset.end());

  ++stats_.exchanges_initiated;
  m_initiated_.add(1);
  // Root trace of the whole exchange; arming just the root id (no message
  // trace yet) makes the request — and, via the delivered context at the
  // partner, the response — children of this root.
  std::uint64_t trace_root = 0;
  if (telemetry::FlightRecorder* fr = tel_.flight(); fr != nullptr && fr->enabled()) {
    trace_root =
        fr->new_root(telemetry::TraceLayer::kPpss, self_.value, "group=" + group_.str());
  }
  {
    telemetry::TraceContext root_ctx;
    root_ctx.root = trace_root;
    telemetry::ScopedTraceContext guard(tel_.flight(), root_ctx);
    wcl_.send_confidential(partner_peer, encode_gossip(kKindGossipReq, seq, buffer));
  }

  PendingExchange pending;
  pending.partner = partner_peer.card.id;
  pending.started_at = clock_.now();
  pending.trace_root = trace_root;
  pending.timeout_timer = clock_.schedule_after(config_.response_timeout, [this, seq] {
    auto it = pending_.find(seq);
    if (it == pending_.end()) return;
    if (telemetry::FlightRecorder* fr = tel_.flight();
        fr != nullptr && fr->enabled() && it->second.trace_root != 0) {
      fr->end(it->second.trace_root, self_.value, clock_.now(), "timeout", 1, 0);
    }
    view_.remove(it->second.partner);
    pending_.erase(it);
    ++stats_.exchanges_timed_out;
    m_timed_out_.add(1);
    tel_.instant("ppss.exchange.timeout", "ppss", clock_.now());
  });
  pending_[seq] = pending;
}

bool Ppss::verify_passport_cached(const Passport& p) {
  m_passport_checks_.add(1);
  if (p.signature.empty()) return false;
  Writer w;
  w.node_id(p.node);
  w.u64(p.epoch);
  w.raw(p.signature);
  const std::uint64_t fp = crypto::fingerprint64(w.data());
  if (verified_passports_.contains(fp)) return true;
  bool ok = false;
  cpu_.charge(net::CpuCategory::kRsaSign, [&] { ok = keyring_.verify_passport(p); });
  if (ok) verified_passports_.seen_or_insert(fp);
  return ok;
}

void Ppss::reject_frame(Reader& r) {
  DecodeError err = r.reject_reason();
  if (err == DecodeError::kNone) err = DecodeError::kBadValue;
  ++stats_.decode_rejects;
  tel_.drop_frame(m_decode_rejects_, clock_.now(),
                  std::string("decode:") + decode_error_name(err));
}

bool Ppss::suppress_or_limit(NodeId sender, std::uint8_t kind, std::uint64_t seq) {
  if (replay_window_.seen_or_insert(frame_fingerprint(sender, kind, seq))) {
    ++stats_.replays_suppressed;
    tel_.drop_frame(m_replays_, clock_.now(), "replay");
    return true;
  }
  if (!guard_.admit(sender, clock_.now())) {
    ++stats_.rate_limited;
    tel_.drop_frame(m_rate_limited_, clock_.now(), "ratelimit");
    return true;
  }
  return false;
}

void Ppss::handle_payload(BytesView payload) {
  Reader r(payload);
  const std::uint8_t kind = r.u8();
  if (!r.ok()) {
    reject_frame(r);
    return;
  }
  switch (kind) {
    case kKindGossipReq:
    case kKindGossipResp:
      handle_gossip(kind, r);
      break;
    case kKindJoinReq:
      handle_join_request(r);
      break;
    case kKindJoinResp:
      handle_join_response(r);
      break;
    case kKindPing:
    case kKindPong:
      handle_ping(kind, r);
      break;
    case kKindApp:
      handle_app(r);
      break;
    default:
      r.fail(DecodeError::kBadValue);
      reject_frame(r);
      break;
  }
}

void Ppss::handle_gossip(std::uint8_t kind, Reader& r) {
  const std::uint32_t seq = r.u32();
  auto passport = Passport::deserialize(r);
  GossipMeta meta;
  meta.leader_epoch = r.u64();
  meta.heartbeat_age_us = r.u64();
  meta.proposal_hash = r.u64();
  meta.proposal_node = r.node_id();
  meta.rotation = r.bytes(kMaxRotationBytes);
  const std::uint16_t count = r.count16(config_.max_gossip_entries);
  std::vector<PrivateEntry> received;
  for (std::uint16_t i = 0; i < count && r.ok(); ++i) {
    auto e = PrivateEntry::deserialize(r);
    if (!e) break;
    received.push_back(std::move(*e));
  }
  if (!r.ok() || !passport || received.empty() || !r.expect_done()) {
    reject_frame(r);
    return;
  }
  if (received.front().peer.card.id != passport->node) {
    r.fail(DecodeError::kBadValue);
    reject_frame(r);
    return;
  }
  if (!joined()) return;

  // Rotation announcements must be absorbed before passport verification:
  // after an election the winner's passport is signed with the very epoch
  // key the announcement delivers. The announcement only takes effect for
  // a strictly newer epoch, so replays are no-ops. Heartbeat and election
  // fields are absorbed only after the passport verifies.
  absorb_rotation(meta);
  if (!verify_passport_cached(*passport)) {
    ++stats_.bad_passports;
    m_passport_bad_.add(1);
    return;  // silently ignore, never reveal membership
  }
  const wcl::RemotePeer sender = received.front().peer;
  if (suppress_or_limit(sender.card.id, kind, seq)) return;
  absorb_meta(meta);

  if (kind == kKindGossipReq) {
    std::vector<PrivateEntry> buffer;
    buffer.push_back(self_entry());
    auto subset = view_.random_subset(config_.gossip_size - 1, rng_);
    buffer.insert(buffer.end(), subset.begin(), subset.end());
    wcl_.send_confidential(sender, encode_gossip(kKindGossipResp, seq, buffer));
    view_.merge(received, self_, /*pi_min_public=*/0, rng_);
  } else {
    auto it = pending_.find(seq);
    if (it == pending_.end() || it->second.partner != sender.card.id) return;
    if (it->second.timeout_timer != 0) clock_.cancel(it->second.timeout_timer);
    const net::Time rtt = clock_.now() - it->second.started_at;
    if (telemetry::FlightRecorder* fr = tel_.flight();
        fr != nullptr && fr->enabled() && it->second.trace_root != 0) {
      fr->end(it->second.trace_root, self_.value, clock_.now(), "completed", 1, rtt);
    }
    pending_.erase(it);
    view_.merge(received, self_, /*pi_min_public=*/0, rng_);
    ++stats_.exchanges_completed;
    m_completed_.add(1);
    m_rtt_.observe(static_cast<double>(rtt));
    tel_.complete("ppss.exchange", "ppss", clock_.now() - rtt, rtt);
    if (on_exchange_rtt) on_exchange_rtt(rtt);
  }
}

void Ppss::handle_join_request(Reader& r) {
  auto accreditation = Accreditation::deserialize(r);
  auto joiner = wcl::RemotePeer::deserialize(r);
  if (!accreditation || !joiner || !r.expect_done()) {
    reject_frame(r);
    return;
  }
  if (!joined()) return;

  if (!is_leader()) {
    // Forward to a leader if we can find one; otherwise drop (the joiner
    // retries; the paper's model expects joins to reach a leader).
    return;
  }
  bool ok = false;
  cpu_.charge(net::CpuCategory::kRsaSign,
              [&] { ok = keyring_.verify_accreditation(*accreditation); });
  if (!ok || accreditation->node != joiner->card.id) return;

  ++stats_.joins_served;
  m_joins_served_.add(1);
  Passport passport;
  cpu_.charge(net::CpuCategory::kRsaSign, [&] {
    passport = issue_passport(group_, keyring_.latest_epoch(), joiner->card.id, *group_key_);
  });

  Writer w;
  w.group_id(group_);
  w.u8(kKindJoinResp);
  passport.serialize(w);
  // Full key history so old passports verify at the joiner too.
  w.u16(static_cast<std::uint16_t>(keyring_.epochs()));
  for (std::uint64_t epoch = 1; epoch <= keyring_.latest_epoch(); ++epoch) {
    if (auto key = keyring_.key_for(epoch)) {
      w.u64(epoch);
      w.bytes(key->serialize());
    }
  }
  // Bootstrap entries: ourself plus a view sample.
  std::vector<PrivateEntry> boot;
  boot.push_back(self_entry());
  auto subset = view_.random_subset(config_.gossip_size - 1, rng_);
  boot.insert(boot.end(), subset.begin(), subset.end());
  w.u16(static_cast<std::uint16_t>(boot.size()));
  for (const auto& e : boot) e.serialize(w);

  wcl_.send_confidential(*joiner, w.data());

  // Remember the joiner ourselves.
  view_.insert(PrivateEntry{*joiner, 0});
  view_.truncate_biased(0, rng_);
}

void Ppss::handle_join_response(Reader& r) {
  if (!pending_join_) return;
  auto passport = Passport::deserialize(r);
  if (!passport) {
    reject_frame(r);
    return;
  }
  if (passport->node != self_) return;
  // Parse the full key history and bootstrap view before mutating anything:
  // a frame that fails partway through must leave the keyring untouched.
  const std::uint16_t n_keys = r.count16(config_.max_key_epochs);
  std::vector<std::pair<std::uint64_t, crypto::RsaPublicKey>> keys;
  for (std::uint16_t i = 0; i < n_keys && r.ok(); ++i) {
    const std::uint64_t epoch = r.u64();
    auto key = crypto::RsaPublicKey::deserialize(r.bytes(crypto::kMaxKeyWireBytes));
    if (!r.ok() || !key) break;
    keys.emplace_back(epoch, std::move(*key));
  }
  const std::uint16_t n_entries = r.count16(config_.max_gossip_entries);
  std::vector<PrivateEntry> boot;
  for (std::uint16_t i = 0; i < n_entries && r.ok(); ++i) {
    auto e = PrivateEntry::deserialize(r);
    if (!e) break;
    boot.push_back(std::move(*e));
  }
  if (!r.ok() || keys.size() != n_keys || boot.size() != n_entries || !r.expect_done()) {
    reject_frame(r);
    return;
  }
  for (auto& [epoch, key] : keys) keyring_.add_epoch(epoch, std::move(key));

  // Validate our own passport before trusting it.
  if (!keyring_.verify_passport(*passport)) return;
  passport_ = *passport;
  if (pending_join_->retry_timer != 0) clock_.cancel(pending_join_->retry_timer);
  if (telemetry::FlightRecorder* fr = tel_.flight();
      fr != nullptr && fr->enabled() && pending_join_->trace_root != 0) {
    fr->end(pending_join_->trace_root, self_.value, clock_.now(), "joined",
            static_cast<std::uint16_t>(pending_join_->attempts), 0);
  }
  pending_join_.reset();
  last_heartbeat_seen_ = clock_.now();

  for (auto& e : boot) {
    if (e.id() == self_) continue;
    view_.insert(std::move(e));
  }
  view_.truncate_biased(0, rng_);
}

void Ppss::handle_ping(std::uint8_t kind, Reader& r) {
  const std::uint32_t seq = r.u32();
  auto passport = Passport::deserialize(r);
  auto entry = PrivateEntry::deserialize(r);
  if (!r.ok() || !passport || !entry || !r.expect_done()) {
    reject_frame(r);
    return;
  }
  if (!joined()) return;
  if (!verify_passport_cached(*passport) || passport->node != entry->id()) {
    ++stats_.bad_passports;
    m_passport_bad_.add(1);
    return;
  }
  if (suppress_or_limit(entry->id(), kind, seq)) return;

  if (kind == kKindPing) {
    // Refresh our knowledge of the pinger and answer with our fresh entry.
    view_.insert(*entry);
    view_.truncate_biased(0, rng_);
    Writer w;
    w.group_id(group_);
    w.u8(kKindPong);
    w.u32(seq);
    passport_.serialize(w);
    self_entry().serialize(w);
    wcl_.send_confidential(entry->peer, w.data());
  } else {
    auto it = pending_pings_.find(seq);
    if (it == pending_pings_.end() || it->second != entry->id()) return;
    pending_pings_.erase(it);
    auto pinned = pcp_.find(entry->id());
    if (pinned != pcp_.end()) {
      pinned->second.peer = entry->peer;  // fresh helpers
      pinned->second.missed_pings = 0;
    }
  }
}

void Ppss::handle_app(Reader& r) {
  auto passport = Passport::deserialize(r);
  auto sender = wcl::RemotePeer::deserialize(r);
  const std::uint64_t nonce = r.u64();
  const std::uint8_t app_id = r.u8();
  Bytes payload = r.bytes(config_.max_app_payload);
  if (!r.ok() || !passport || !sender || !r.expect_done()) {
    reject_frame(r);
    return;
  }
  if (!joined()) return;
  if (!verify_passport_cached(*passport) || passport->node != sender->card.id) {
    ++stats_.bad_passports;
    m_passport_bad_.add(1);
    return;
  }
  if (suppress_or_limit(sender->card.id, kKindApp, nonce)) return;
  if (app_id == 0) {
    if (on_app_message) on_app_message(*sender, payload);
    return;
  }
  auto it = app_handlers_.find(app_id);
  if (it != app_handlers_.end() && it->second) it->second(*sender, payload);
}

void Ppss::register_app(std::uint8_t app_id, AppHandler handler) {
  app_handlers_[app_id] = std::move(handler);
}

void Ppss::make_persistent(const wcl::RemotePeer& peer) {
  pcp_[peer.card.id] = PinnedPeer{peer, 0};
}

std::optional<wcl::RemotePeer> Ppss::persistent_peer(NodeId id) const {
  auto it = pcp_.find(id);
  if (it == pcp_.end()) return std::nullopt;
  return it->second.peer;
}

wcl::RemotePeer Ppss::self_descriptor() const { return wcl_.self_peer(); }

std::optional<wcl::RemotePeer> Ppss::resolve(NodeId id) const {
  if (auto pinned = persistent_peer(id)) return pinned;
  if (const PrivateEntry* e = view_.find(id)) return e->peer;
  return std::nullopt;
}

bool Ppss::send_app(NodeId to, BytesView payload, std::uint8_t app_id) {
  auto peer = resolve(to);
  if (!peer) return false;
  return send_app_to(*peer, payload, app_id);
}

bool Ppss::send_app_to(const wcl::RemotePeer& to, BytesView payload, std::uint8_t app_id) {
  if (!joined()) return false;
  Writer w;
  w.group_id(group_);
  w.u8(kKindApp);
  passport_.serialize(w);
  wcl_.self_peer().serialize(w);
  // Fresh nonce per frame: receivers suppress replayed (sender, nonce)
  // pairs, so a captured app frame cannot be re-injected.
  w.u64(next_app_nonce_++);
  w.u8(app_id);
  w.bytes(payload);
  return wcl_.send_confidential(to, w.data());
}

}  // namespace whisper::ppss
