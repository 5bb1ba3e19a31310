// WhisperTestbed: builds a whole simulated deployment.
//
// Owns the simulator, latency model, network, NAT fabric, and the node
// population; provides churn operations (kill/spawn) and measurement
// helpers (overlay snapshots, bandwidth counters). Every bench constructs
// one of these from a TestbedConfig — this file is the equivalent of the
// paper's SPLAY deployment scripts.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "faults/faults.hpp"
#include "nat/nat.hpp"
#include "pss/metrics.hpp"
#include "sim/network.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/trace.hpp"
#include "whisper/node.hpp"

namespace whisper {

struct TestbedConfig {
  std::size_t initial_nodes = 0;
  double natted_fraction = 0.7;  // the paper's deployment mix
  std::string latency = "cluster";
  NodeConfig node;
  std::uint64_t seed = 42;
  /// How many existing node cards a booting node receives.
  std::size_t bootstrap_contacts = 5;
  /// Record trace events (spans/instants) on the tracer. Metrics are always
  /// on; tracing is opt-in because event buffers grow with run length.
  bool trace = false;
  /// Record causal flight events (per-message traces with per-hop latency
  /// decomposition). Opt-in for the same reason.
  bool flight = false;
  /// Snapshot every registry metric into the time-series recorder at this
  /// virtual-time interval (0 = no sampling).
  net::Time telemetry_sample_every = 0;
};

class WhisperTestbed {
 public:
  explicit WhisperTestbed(TestbedConfig config);

  // Nodes hold references to the simulator and network owned here:
  // the testbed must stay at a fixed address.
  WhisperTestbed(const WhisperTestbed&) = delete;
  WhisperTestbed& operator=(const WhisperTestbed&) = delete;

  /// Backend-agnostic transport handles. New code should reach the clock
  /// and the wire through these: everything the protocol stack needs is on
  /// the SPI, and code written against it runs unmodified on the UDP
  /// backend.
  net::Clock& clock() { return sim_; }
  net::Stack& stack() { return *net_; }

  // Narrow simulation-only helpers. These replace the removed
  // simulator()/network() escape hatches: everything protocol-shaped goes
  // through the SPI above; what remains below is the handful of
  // measurement facilities only the simulation backend can offer.

  /// Events the virtual-time event loop has executed so far.
  std::uint64_t executed_events() const { return sim_.executed_events(); }
  /// Packets the simulated wire has handed to a receiving node.
  std::uint64_t packets_delivered() const { return net_->packets_delivered(); }
  /// Wiretap on every emitted datagram (nullptr to clear).
  void set_tap(sim::Network::Tap tap) { net_->set_tap(std::move(tap)); }
  /// Per-node traffic counters (zeroes for unknown endpoints).
  const sim::TrafficCounters& traffic(Endpoint internal_ep) const {
    return net_->counters(internal_ep);
  }
  /// Zero every "net."-prefixed metric (bandwidth measurement windows).
  void reset_traffic() { net_->reset_counters(); }
  /// Raw wire injection for adversarial tests (bypasses every protocol
  /// layer; the NAT fabric still applies).
  bool inject(Endpoint internal_src, Endpoint public_dst, Bytes payload,
              net::Proto proto) {
    return net_->send(internal_src, public_dst, std::move(payload), proto);
  }

  nat::NatFabric& fabric() { return *fabric_; }
  Rng& rng() { return rng_; }
  const TestbedConfig& config() const { return config_; }

  /// Boot one more node (public with probability 1-natted_fraction).
  WhisperNode& spawn_node();
  /// Remove a random live node; returns its id (nil if none).
  NodeId kill_random_node();
  void kill_node(NodeId id);
  /// Crash-restart `id` in place: stop it abruptly (the sim's kill -9 — no
  /// graceful departure exists anyway) and boot a replacement with the same
  /// id, endpoint and identity keys at incarnation old+1, bootstrapping
  /// from live cards like any booting node (DESIGN.md §14). Peers only
  /// notice the restart when the previous life advertised a nonzero
  /// incarnation, so crash-recovery scenarios set config.node.incarnation.
  /// Returns nullptr for unknown or already-stopped ids.
  WhisperNode* restart_node(NodeId id);

  WhisperNode* node(NodeId id);
  std::vector<WhisperNode*> alive_nodes();
  /// Every node ever spawned, including stopped ones (their statistics
  /// remain readable — churn experiments aggregate over these).
  std::vector<WhisperNode*> all_nodes();
  std::vector<WhisperNode*> alive_public_nodes();
  std::size_t alive_count() const;

  /// Advance virtual time.
  void run_for(net::Time duration);

  /// Snapshot of the system-wide PSS out-views.
  pss::OverlayGraph overlay_snapshot();

  /// Install (once) the fault-injection fabric, wired to this testbed's
  /// population: live/relay endpoint resolution, churn-kill for crashes,
  /// NAT-device resets. Idempotent — returns the existing fabric if called
  /// again.
  faults::FaultFabric& install_fault_fabric();
  faults::FaultFabric* fault_fabric() { return faults_.get(); }

  /// Internal endpoints of live public nodes currently relaying for others
  /// (the relay-crash fault's victim pool).
  std::vector<Endpoint> relay_endpoints();

  // --- Telemetry. ---
  telemetry::Registry& registry() { return registry_; }
  const telemetry::Registry& registry() const { return registry_; }
  telemetry::Tracer& tracer() { return tracer_; }
  telemetry::FlightRecorder& flight() { return flight_; }
  const telemetry::FlightRecorder& flight() const { return flight_; }
  telemetry::TimeSeriesRecorder& recorder() { return recorder_; }
  /// The sinks handed to every spawned node.
  telemetry::Sinks sinks() { return telemetry::Sinks{&registry_, &tracer_, &flight_}; }

 private:
  void schedule_telemetry_sample();
  /// Random live-card sample for a booting (or rebooting) node.
  std::vector<pss::ContactCard> sample_bootstrap(NodeId exclude);

  TestbedConfig config_;
  Rng rng_;
  sim::Simulator sim_;
  telemetry::Registry registry_;
  telemetry::Tracer tracer_;
  telemetry::FlightRecorder flight_;
  /// Internal endpoint -> node id, for the flight recorder's node resolver
  /// (covers departed nodes too: packets in flight outlive their sender).
  std::unordered_map<Endpoint, std::uint64_t> endpoint_ids_;
  telemetry::TimeSeriesRecorder recorder_;
  std::unique_ptr<nat::NatFabric> fabric_;
  std::unique_ptr<sim::Network> net_;
  // Declared after net_: the fabric detaches from the network on
  // destruction, so it must die first.
  std::unique_ptr<faults::FaultFabric> faults_;
  std::vector<std::unique_ptr<WhisperNode>> nodes_;  // includes stopped ones
  std::uint64_t next_node_id_ = 1;
  std::size_t next_key_index_ = 0;
};

}  // namespace whisper
