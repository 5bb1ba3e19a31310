#include "nylon/transport.hpp"

#include <algorithm>
#include <cassert>

namespace whisper::nylon {

namespace {

enum class MsgType : std::uint8_t {
  kData = 1,
  kForward = 2,
  kRegister = 3,
  kRegisterAck = 4,
  kProbe = 5,
  kProbeAck = 6,
};

}  // namespace

Bytes Transport::DataMsg::serialize() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kData));
  w.node_id(from);
  w.u32(incarnation);
  w.boolean(relayed);
  w.endpoint(observed_src);
  w.u8(tag);
  w.raw(payload);
  return std::move(w).take();
}

std::optional<Transport::DataMsg> Transport::DataMsg::parse(Reader& r) {
  DataMsg m;
  m.from = r.node_id();
  m.incarnation = r.u32();
  m.relayed = r.boolean();
  m.observed_src = r.endpoint();
  m.tag = r.u8();
  m.payload = r.rest();
  if (!r.ok()) return std::nullopt;
  return m;
}

Transport::Transport(net::Clock& clock, net::Stack& net, NodeId self, Endpoint internal_ep,
                     bool is_public, TransportConfig config)
    : clock_(clock), net_(net), self_(self), internal_ep_(internal_ep), is_public_(is_public),
      config_(config) {
  net_.attach(internal_ep_, [this](const net::Datagram& d) { on_datagram(d); });
  attached_ = true;
}

Transport::~Transport() { shutdown(); }

void Transport::shutdown() {
  if (!attached_) return;
  net_.detach(internal_ep_);
  if (keepalive_timer_ != 0) clock_.cancel(keepalive_timer_);
  keepalive_timer_ = 0;
  if (probe_sweep_timer_ != 0) clock_.cancel(probe_sweep_timer_);
  probe_sweep_timer_ = 0;
  attached_ = false;
}

pss::ContactCard Transport::self_card() const {
  pss::ContactCard card;
  card.id = self_;
  card.is_public = is_public_;
  if (is_public_) {
    card.addr = internal_ep_;
  } else {
    card.addr = relay_.addr;
    card.relay_id = relay_.id;
  }
  return card;
}

void Transport::set_relay(const pss::ContactCard& relay) {
  assert(!is_public_);
  assert(relay.is_public);
  relay_ = relay;
  unanswered_keepalives_ = 0;
  registered_ = false;
  if (keepalive_timer_ != 0) clock_.cancel(keepalive_timer_);
  send_keepalive();
}

bool Transport::relay_lost() const {
  if (is_public_) return false;
  if (relay_.id.is_nil()) return true;
  return unanswered_keepalives_ >= config_.relay_loss_threshold;
}

void Transport::send_keepalive() {
  if (!attached_ || relay_.id.is_nil()) return;
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kRegister));
  w.node_id(self_);
  w.u32(config_.incarnation);
  net_.send(internal_ep_, relay_.addr, std::move(w).take(), net::Proto::kControl);
  ++unanswered_keepalives_;
  // Full rate while the relay still counts as alive (fast detection); after
  // the loss threshold, back off exponentially — failover owns recovery,
  // these keepalives only cover the relay coming back.
  net::Time delay = config_.keepalive_period;
  if (unanswered_keepalives_ >= config_.relay_loss_threshold) {
    const int over = unanswered_keepalives_ - config_.relay_loss_threshold;
    for (int i = 0; i <= over && delay < config_.keepalive_backoff_max; ++i) delay *= 2;
    delay = std::min(delay, config_.keepalive_backoff_max);
  } else if (!registered_ && config_.register_retry_initial > 0) {
    // Never acked by this relay yet: retry fast with doubling backoff until
    // the first ack lands (lossy paths eat initial registers; an unregistered
    // N-node is unreachable, so waiting a whole keepalive period per attempt
    // compounds the outage).
    delay = config_.register_retry_initial;
    for (int i = 1; i < unanswered_keepalives_; ++i) {
      delay = std::min(delay * 2, config_.keepalive_period);
    }
    delay = std::min(delay, config_.keepalive_period);
  }
  keepalive_timer_ = clock_.schedule_after(delay, [this] { send_keepalive(); });
  if (unanswered_keepalives_ == config_.relay_loss_threshold) {
    ++relays_lost_;
    registered_ = false;
    if (on_relay_lost) on_relay_lost();  // may re-enter set_relay()
  }
}

void Transport::register_handler(std::uint8_t tag, Handler handler) {
  handlers_[tag] = std::move(handler);
}

bool Transport::can_send_direct(NodeId peer) const {
  auto it = direct_routes_.find(peer);
  return it != direct_routes_.end() &&
         it->second.verified_at + config_.route_ttl > clock_.now();
}

bool Transport::send(const pss::ContactCard& card, std::uint8_t tag, BytesView payload,
                     net::Proto proto) {
  if (!attached_ || card.id.is_nil()) return false;

  DataMsg msg;
  msg.from = self_;
  msg.incarnation = config_.incarnation;
  msg.tag = tag;
  msg.payload.assign(payload.begin(), payload.end());

  // 1. Verified punched route.
  if (auto it = direct_routes_.find(card.id);
      it != direct_routes_.end() && it->second.verified_at + config_.route_ttl > clock_.now()) {
    // Past the half-life, re-verify in the background while still using the
    // route: a hole whose far NAT silently dropped the mapping looks exactly
    // like a working one until probes stop coming back.
    if (it->second.verified_at + config_.route_ttl / 2 <= clock_.now()) {
      consider_probe(card.id, it->second.endpoint);
    }
    ++sends_punched_;
    return net_.send(internal_ep_, it->second.endpoint, msg.serialize(), proto);
  }
  // 2. P-node: its address is globally reachable.
  if (card.is_public) {
    ++sends_direct_;
    return net_.send(internal_ep_, card.addr, msg.serialize(), proto);
  }
  // 3. We are the target's relay: forward from our own registration table.
  if (card.relay_id == self_) {
    auto it = registrations_.find(card.id);
    if (it == registrations_.end() || it->second.expires <= clock_.now()) return false;
    msg.relayed = true;
    msg.observed_src = internal_ep_;  // we are public; peers see this address
    ++sends_relayed_;
    return net_.send(internal_ep_, it->second.external, msg.serialize(), proto);
  }
  // 4. Via the target's relay.
  if (card.addr.is_nil()) return false;
  msg.relayed = true;
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kForward));
  w.node_id(card.id);
  w.bytes(msg.serialize());
  ++sends_relayed_;
  return net_.send(internal_ep_, card.addr, std::move(w).take(), proto);
}

bool Transport::send_by_id(NodeId to, std::uint8_t tag, BytesView payload, net::Proto proto) {
  if (!attached_ || to.is_nil()) return false;
  DataMsg msg;
  msg.from = self_;
  msg.incarnation = config_.incarnation;
  msg.tag = tag;
  msg.payload.assign(payload.begin(), payload.end());

  if (auto it = direct_routes_.find(to);
      it != direct_routes_.end() && it->second.verified_at + config_.route_ttl > clock_.now()) {
    if (it->second.verified_at + config_.route_ttl / 2 <= clock_.now()) {
      consider_probe(to, it->second.endpoint);
    }
    ++sends_punched_;
    return net_.send(internal_ep_, it->second.endpoint, msg.serialize(), proto);
  }
  if (auto it = registrations_.find(to);
      it != registrations_.end() && it->second.expires > clock_.now()) {
    msg.relayed = true;
    msg.observed_src = internal_ep_;
    ++sends_relayed_;
    return net_.send(internal_ep_, it->second.external, msg.serialize(), proto);
  }
  return false;
}

void Transport::on_datagram(const net::Datagram& dgram) {
  Reader r(dgram.payload);
  const auto type = static_cast<MsgType>(r.u8());
  if (!r.ok()) {
    ++decode_rejects_;
    return;
  }
  switch (type) {
    case MsgType::kData:
      handle_data(dgram, r);
      break;
    case MsgType::kForward:
      handle_forward(dgram, r);
      break;
    case MsgType::kRegister:
      handle_register(dgram, r);
      break;
    case MsgType::kRegisterAck:
      handle_register_ack(r);
      break;
    case MsgType::kProbe:
      handle_probe(dgram, r);
      break;
    case MsgType::kProbeAck:
      handle_probe_ack(dgram, r);
      break;
    default:
      ++decode_rejects_;  // unknown frame type
      break;
  }
}

void Transport::handle_data(const net::Datagram& dgram, Reader& r) {
  auto msg = DataMsg::parse(r);
  if (!msg || msg->from.is_nil()) {
    ++decode_rejects_;
    return;
  }
  if (!observe_incarnation(msg->from, msg->incarnation)) return;  // stale straggler

  if (!msg->relayed) {
    // Direct packet: the peer can reach us; probe back so that we can
    // confirm the reverse direction too.
    if (!can_send_direct(msg->from)) consider_probe(msg->from, dgram.src);
  } else if (!msg->observed_src.is_nil()) {
    // Relayed with an observed external endpoint: hole punch candidate —
    // unless the "observed" address is the relay itself (P-node relaying
    // for us stamps its own address when it is the original sender).
    if (!can_send_direct(msg->from)) {
      consider_probe(msg->from, msg->observed_src);
    } else if (auto it = direct_routes_.find(msg->from);
               it != direct_routes_.end() &&
               it->second.endpoint != msg->observed_src) {
      // The relay sees this peer at a different external address than our
      // verified route: its NAT rebooted or the mapping expired and was
      // re-opened on a new port. Our punched route points at a dead hole —
      // drop it and court the new candidate.
      direct_routes_.erase(it);
      ++routes_invalidated_;
      consider_probe(msg->from, msg->observed_src);
    }
  }

  auto it = handlers_.find(msg->tag);
  if (it == handlers_.end()) return;
  if (cpu_ == nullptr) {
    it->second(msg->from, msg->payload);
    return;
  }
  const net::CpuCategory cat = msg->tag == kTagPss    ? net::CpuCategory::kPssHandler
                               : msg->tag == kTagKeys ? net::CpuCategory::kKeysHandler
                                                      : net::CpuCategory::kWclHandler;
  cpu_->charge(cat, [&] { it->second(msg->from, msg->payload); });
}

void Transport::handle_forward(const net::Datagram& dgram, Reader& r) {
  if (!is_public_) return;  // only P-nodes relay
  const NodeId dst = r.node_id();
  Bytes inner = r.bytes(config_.max_forward_bytes);
  if (!r.expect_done()) {
    ++decode_rejects_;
    return;
  }

  auto it = registrations_.find(dst);
  if (it == registrations_.end() || it->second.expires <= clock_.now()) return;

  // Stamp the sender's observed external endpoint into the data message so
  // the receiver can attempt hole punching (the RV role of Nylon).
  Reader ir(inner);
  const auto type = static_cast<MsgType>(ir.u8());
  if (type != MsgType::kData) {
    ++decode_rejects_;
    return;
  }
  auto msg = DataMsg::parse(ir);
  if (!msg || msg->from.is_nil()) {
    ++decode_rejects_;
    return;
  }
  msg->observed_src = dgram.src;
  // Keep the original accounting class for forwarded traffic.
  net_.send(internal_ep_, it->second.external, msg->serialize(), dgram.proto);
}

void Transport::handle_register(const net::Datagram& dgram, Reader& r) {
  if (!is_public_) return;
  const NodeId who = r.node_id();
  const std::uint32_t incarnation = r.u32();
  if (!r.expect_done() || who.is_nil()) {
    ++decode_rejects_;
    return;
  }
  if (!observe_incarnation(who, incarnation)) return;  // stale pre-crash register
  if (registrations_.count(who) == 0 &&
      registrations_.size() >= config_.max_registrations) {
    // Table full: evict the registration closest to expiry so an id-spraying
    // peer can't grow relay state without bound.
    auto victim = registrations_.begin();
    for (auto it = registrations_.begin(); it != registrations_.end(); ++it) {
      if (it->second.expires < victim->second.expires) victim = it;
    }
    registrations_.erase(victim);
    ++cap_evictions_;
  }
  registrations_[who] = Registration{dgram.src, clock_.now() + config_.registration_ttl};

  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kRegisterAck));
  w.node_id(self_);
  w.u32(config_.incarnation);
  net_.send(internal_ep_, dgram.src, std::move(w).take(), net::Proto::kControl);
}

void Transport::handle_register_ack(Reader& r) {
  const NodeId from = r.node_id();
  const std::uint32_t incarnation = r.u32();
  if (!r.expect_done()) {
    ++decode_rejects_;
    return;
  }
  if (!observe_incarnation(from, incarnation)) return;
  if (from != relay_.id) return;
  const bool was_backed_off = unanswered_keepalives_ >= config_.relay_loss_threshold;
  const bool first_ack = !registered_;
  unanswered_keepalives_ = 0;
  registered_ = true;
  if (first_ack && !was_backed_off && attached_ && keepalive_timer_ != 0) {
    // The fast-retry timer is still armed at its short cadence; the relay
    // answered, so fall back to the normal keepalive rhythm.
    clock_.cancel(keepalive_timer_);
    keepalive_timer_ =
        clock_.schedule_after(config_.keepalive_period, [this] { send_keepalive(); });
  }
  if (was_backed_off && attached_) {
    // The relay answered after all: drop the backed-off timer and resume
    // the normal cadence immediately.
    if (keepalive_timer_ != 0) clock_.cancel(keepalive_timer_);
    keepalive_timer_ =
        clock_.schedule_after(config_.keepalive_period, [this] { send_keepalive(); });
  }
}

void Transport::consider_probe(NodeId peer, Endpoint candidate) {
  if (peer == self_ || candidate.is_nil()) return;
  if (probes_.count(peer) == 0 && probes_.size() >= config_.max_probes) {
    // Evict the stalest in-flight probe (peer-driven state, hard-capped).
    auto victim = probes_.begin();
    for (auto it = probes_.begin(); it != probes_.end(); ++it) {
      if (it->second.sent_at < victim->second.sent_at) victim = it;
    }
    probes_.erase(victim);
    ++cap_evictions_;
  }
  auto& pending = probes_[peer];
  if (pending.sent_at != 0 && pending.sent_at + config_.probe_min_interval > clock_.now()) return;
  pending.seq = next_probe_seq_++;
  pending.target = candidate;
  pending.sent_at = clock_.now();
  pending.retries = 0;

  send_probe_frame(candidate, pending.seq);
  arm_probe_sweep();
}

void Transport::send_probe_frame(Endpoint target, std::uint32_t seq) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kProbe));
  w.node_id(self_);
  w.u32(seq);
  w.u32(config_.incarnation);
  ++probes_sent_;
  net_.send(internal_ep_, target, std::move(w).take(), net::Proto::kControl);
}

void Transport::arm_probe_sweep() {
  if (probe_sweep_timer_ != 0 || !attached_ || config_.probe_max_retries <= 0) return;
  probe_sweep_timer_ =
      clock_.schedule_after(config_.probe_min_interval, [this] { probe_sweep(); });
}

void Transport::probe_sweep() {
  probe_sweep_timer_ = 0;
  if (!attached_) return;
  const net::Time now = clock_.now();
  bool pending_left = false;
  for (auto [peer, p] : probes_) {
    if (p.retries >= config_.probe_max_retries) continue;
    if (can_send_direct(peer)) continue;  // the ack landed; nothing to chase
    net::Time wait = config_.probe_min_interval;
    for (int i = 0; i < p.retries; ++i) wait *= 2;
    if (p.sent_at + wait <= now) {
      // Same seq: a late ack to any retransmission still verifies the route.
      send_probe_frame(p.target, p.seq);
      ++p.retries;
      ++probe_retries_;
      p.sent_at = now;
    }
    if (p.retries < config_.probe_max_retries) pending_left = true;
  }
  if (pending_left) arm_probe_sweep();
}

void Transport::handle_probe(const net::Datagram& dgram, Reader& r) {
  const NodeId from = r.node_id();
  const std::uint32_t seq = r.u32();
  const std::uint32_t incarnation = r.u32();
  if (!r.expect_done()) {
    ++decode_rejects_;
    return;
  }
  if (!observe_incarnation(from, incarnation)) return;
  // The probe reached us directly: answering to its wire source both
  // confirms reachability to the peer and opens our own mapping toward it.
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kProbeAck));
  w.node_id(self_);
  w.u32(seq);
  w.u32(config_.incarnation);
  net_.send(internal_ep_, dgram.src, std::move(w).take(), net::Proto::kControl);
}

void Transport::handle_probe_ack(const net::Datagram& dgram, Reader& r) {
  const NodeId from = r.node_id();
  const std::uint32_t seq = r.u32();
  const std::uint32_t incarnation = r.u32();
  if (!r.expect_done()) {
    ++decode_rejects_;
    return;
  }
  if (!observe_incarnation(from, incarnation)) return;
  auto it = probes_.find(from);
  if (it == probes_.end() || it->second.seq != seq) return;
  // Our probe went through and the ack came back: the probed endpoint is a
  // working direct route.
  note_direct_route(from, it->second.target);
  (void)dgram;
}

bool Transport::observe_incarnation(NodeId peer, std::uint32_t incarnation) {
  // Epochless peers (no durable state, incarnation 0) are never tracked and
  // never stale — pre-incarnation frames keep working unchanged.
  if (incarnation == 0 || peer == self_) return true;
  auto it = peer_epochs_.find(peer);
  if (it == peer_epochs_.end()) {
    if (peer_epochs_.size() >= config_.max_peer_incarnations) {
      // Evict the least recently seen epoch (peer-driven, hard-capped).
      auto victim = peer_epochs_.begin();
      for (auto i = peer_epochs_.begin(); i != peer_epochs_.end(); ++i) {
        if (i->second.seen < victim->second.seen) victim = i;
      }
      peer_epochs_.erase(victim);
      ++cap_evictions_;
    }
    peer_epochs_[peer] = PeerEpoch{incarnation, clock_.now()};
    return true;
  }
  it->second.seen = clock_.now();
  if (incarnation < it->second.incarnation) {
    // A frame from a previous life of this peer, delayed in the network (or
    // replayed). Acting on it would rebuild routes to a dead process.
    ++stale_incarnation_rejects_;
    return false;
  }
  if (incarnation > it->second.incarnation) {
    // The peer restarted: everything we knew about its old process —
    // punched holes, in-flight probes, its relay registration — described
    // sockets that no longer exist. Purge, then let upper layers treat the
    // new incarnation as proof-of-life.
    it->second.incarnation = incarnation;
    direct_routes_.erase(peer);
    probes_.erase(peer);
    registrations_.erase(peer);
    ++peer_restarts_;
    if (on_peer_restart) on_peer_restart(peer);
  }
  return true;
}

void Transport::note_direct_route(NodeId peer, Endpoint ep) {
  if (direct_routes_.count(peer) == 0 &&
      direct_routes_.size() >= config_.max_direct_routes) {
    // Evict the least recently verified route.
    auto victim = direct_routes_.begin();
    for (auto it = direct_routes_.begin(); it != direct_routes_.end(); ++it) {
      if (it->second.verified_at < victim->second.verified_at) victim = it;
    }
    direct_routes_.erase(victim);
    ++cap_evictions_;
  }
  direct_routes_[peer] = DirectRoute{ep, clock_.now()};
}

std::size_t Transport::direct_route_count() const {
  std::size_t n = 0;
  for (const auto& [id, route] : direct_routes_) {
    if (route.verified_at + config_.route_ttl > clock_.now()) ++n;
  }
  return n;
}

std::size_t Transport::relayed_registrations() const {
  std::size_t n = 0;
  for (const auto& [id, reg] : registrations_) {
    if (reg.expires > clock_.now()) ++n;
  }
  return n;
}

}  // namespace whisper::nylon
