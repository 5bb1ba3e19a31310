#include "whisper/testbed.hpp"

#include <algorithm>

#include "whisper/keypool.hpp"

namespace whisper {

WhisperTestbed::WhisperTestbed(TestbedConfig config)
    : config_(std::move(config)), rng_(config_.seed), sim_(config_.seed ^ 0x5eed),
      recorder_(registry_) {
  sim_.attach_telemetry(registry_);
  tracer_.set_clock(net::clock_fn(sim_));
  tracer_.set_enabled(config_.trace);
  flight_.set_clock(net::clock_fn(sim_));
  flight_.set_enabled(config_.flight);
  flight_.set_node_resolver([this](Endpoint ep) {
    auto it = endpoint_ids_.find(ep);
    return it != endpoint_ids_.end() ? it->second : 0ull;
  });
  fabric_ = std::make_unique<nat::NatFabric>(sim_);
  net_ = std::make_unique<sim::Network>(sim_, sim::make_latency_model(config_.latency),
                                        &registry_);
  net_->set_translator(fabric_.get());
  net_->set_flight(&flight_);
  net_->set_tracer(&tracer_);
  if (config_.telemetry_sample_every > 0) schedule_telemetry_sample();
  for (std::size_t i = 0; i < config_.initial_nodes; ++i) spawn_node();
}

void WhisperTestbed::schedule_telemetry_sample() {
  sim_.schedule_after(config_.telemetry_sample_every, [this] {
    recorder_.sample(sim_.now());
    schedule_telemetry_sample();
  });
}

WhisperNode& WhisperTestbed::spawn_node() {
  const NodeId id{next_node_id_++};
  // The very first nodes must be public so that relays and bootstrap
  // contacts exist for everyone after them.
  nat::NatType type = nat::NatType::kNone;
  if (alive_public_nodes().size() >= 2) {
    type = nat::draw_nat_type(rng_, config_.natted_fraction);
  }
  const bool is_public = type == nat::NatType::kNone;
  const Endpoint ep =
      is_public ? fabric_->add_public_node() : fabric_->add_natted_node(type);
  endpoint_ids_[ep] = id.value;

  auto node = std::make_unique<WhisperNode>(sim_, *net_, id, ep, is_public,
                                            pooled_keypair(next_key_index_++,
                                                           config_.node.rsa_bits),
                                            config_.node, rng_.fork(), sinks());

  node->start(sample_bootstrap(id));
  nodes_.push_back(std::move(node));
  return *nodes_.back();
}

std::vector<pss::ContactCard> WhisperTestbed::sample_bootstrap(NodeId exclude) {
  // Bootstrap contacts: a random sample of live nodes, always including at
  // least one public node (required as a relay for N-nodes).
  std::vector<pss::ContactCard> bootstrap;
  auto alive = alive_nodes();
  std::erase_if(alive, [&](WhisperNode* n) { return n->id() == exclude; });
  rng_.shuffle(alive);
  for (WhisperNode* n : alive) {
    if (bootstrap.size() >= config_.bootstrap_contacts) break;
    bootstrap.push_back(n->transport().self_card());
  }
  const bool has_public = std::any_of(bootstrap.begin(), bootstrap.end(),
                                      [](const pss::ContactCard& c) { return c.is_public; });
  if (!has_public) {
    for (WhisperNode* n : alive) {
      if (n->is_public()) {
        bootstrap.push_back(n->transport().self_card());
        break;
      }
    }
  }
  return bootstrap;
}

WhisperNode* WhisperTestbed::restart_node(NodeId id) {
  WhisperNode* old = node(id);
  if (old == nullptr || !old->running()) return nullptr;
  const Endpoint ep = old->internal_endpoint();
  const bool is_public = old->is_public();
  const std::uint32_t incarnation = old->transport().incarnation() + 1;
  // Abrupt stop: timers die, no departure message goes out (there is
  // none), the endpoint frees up — but the NAT binding and the entry in
  // endpoint_ids_ stay, exactly like a process dying under kill -9.
  old->stop();
  NodeConfig cfg = config_.node;
  cfg.incarnation = incarnation;
  auto fresh = std::make_unique<WhisperNode>(sim_, *net_, id, ep, is_public,
                                             old->keypair(), cfg, rng_.fork(),
                                             sinks());
  fresh->start(sample_bootstrap(id));
  nodes_.push_back(std::move(fresh));
  return nodes_.back().get();
}

NodeId WhisperTestbed::kill_random_node() {
  auto alive = alive_nodes();
  if (alive.empty()) return kNilNode;
  WhisperNode* victim = alive[rng_.pick_index(alive)];
  const NodeId id = victim->id();
  kill_node(id);
  return id;
}

void WhisperTestbed::kill_node(NodeId id) {
  for (auto& n : nodes_) {
    if (n->id() == id && n->running()) {
      n->stop();
      fabric_->remove_node(n->internal_endpoint());
      return;
    }
  }
}

WhisperNode* WhisperTestbed::node(NodeId id) {
  // Restarts leave the stopped predecessor in nodes_ (its statistics stay
  // readable); lookups prefer the live incarnation, then the newest.
  WhisperNode* found = nullptr;
  for (auto& n : nodes_) {
    if (n->id() != id) continue;
    found = n.get();
    if (found->running()) return found;
  }
  return found;
}

std::vector<WhisperNode*> WhisperTestbed::all_nodes() {
  std::vector<WhisperNode*> out;
  out.reserve(nodes_.size());
  for (auto& n : nodes_) out.push_back(n.get());
  return out;
}

std::vector<WhisperNode*> WhisperTestbed::alive_nodes() {
  std::vector<WhisperNode*> out;
  for (auto& n : nodes_) {
    if (n->running()) out.push_back(n.get());
  }
  return out;
}

std::vector<WhisperNode*> WhisperTestbed::alive_public_nodes() {
  std::vector<WhisperNode*> out;
  for (auto& n : nodes_) {
    if (n->running() && n->is_public()) out.push_back(n.get());
  }
  return out;
}

std::size_t WhisperTestbed::alive_count() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const std::unique_ptr<WhisperNode>& n) { return n->running(); }));
}

void WhisperTestbed::run_for(net::Time duration) { sim_.run_until(sim_.now() + duration); }

pss::OverlayGraph WhisperTestbed::overlay_snapshot() {
  pss::OverlayGraph graph;
  for (auto& n : nodes_) {
    if (!n->running()) continue;
    std::vector<NodeId> nbrs;
    for (const auto& e : n->pss().view().entries()) nbrs.push_back(e.id());
    graph[n->id()] = std::move(nbrs);
  }
  return graph;
}

std::vector<Endpoint> WhisperTestbed::relay_endpoints() {
  std::vector<Endpoint> out;
  for (auto& n : nodes_) {
    if (!n->running() || !n->is_public()) continue;
    if (n->transport().relayed_registrations() == 0) continue;
    out.push_back(n->internal_endpoint());
  }
  return out;
}

faults::FaultFabric& WhisperTestbed::install_fault_fabric() {
  if (faults_ != nullptr) return *faults_;
  faults::FaultFabric::Environment env;
  env.live_endpoints = [this] {
    std::vector<Endpoint> out;
    for (auto& n : nodes_) {
      if (n->running()) out.push_back(n->internal_endpoint());
    }
    return out;
  };
  env.relay_endpoints = [this] { return relay_endpoints(); };
  env.crash_node = [this](Endpoint ep) {
    for (auto& n : nodes_) {
      if (n->running() && n->internal_endpoint() == ep) {
        kill_node(n->id());
        return;
      }
    }
  };
  env.reset_nat = [this](Endpoint ep) { fabric_->reset_mappings(ep); };
  faults_ = std::make_unique<faults::FaultFabric>(
      sim_, *net_, std::move(env), rng_.fork(), telemetry::Scope(sinks(), 0));
  return *faults_;
}

}  // namespace whisper
