// telemetry::Scope — the handle protocol layers hold. Bundles the registry
// and tracer with the owning node's id (the trace timeline row) and falls
// back to shared no-op sinks when telemetry is not wired, so a layer
// constructed stand-alone in a unit test instruments itself unconditionally
// at zero setup cost.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "telemetry/flight.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace whisper::telemetry {

/// What a testbed (or tool) hands to each node at construction.
struct Sinks {
  Registry* registry = nullptr;
  Tracer* tracer = nullptr;
  FlightRecorder* flight = nullptr;
};

class Scope {
 public:
  Scope() = default;
  Scope(Sinks sinks, std::uint64_t tid)
      : registry_(sinks.registry), tracer_(sinks.tracer), flight_(sinks.flight),
        tid_(tid) {}

  bool enabled() const { return registry_ != nullptr; }
  Registry* registry() const { return registry_; }
  Tracer* tracer() const { return tracer_; }
  FlightRecorder* flight() const { return flight_; }
  std::uint64_t tid() const { return tid_; }
  /// Node label for per-node metric instances ("n<id>").
  std::string node_label() const { return "n" + std::to_string(tid_); }

  Counter& counter(std::string_view name, const Labels& labels = {}) const {
    return registry_ ? registry_->counter(name, labels) : noop_counter();
  }
  Gauge& gauge(std::string_view name, const Labels& labels = {}) const {
    return registry_ ? registry_->gauge(name, labels) : noop_gauge();
  }
  Histogram& histogram(std::string_view name, const BucketSpec& spec,
                       const Labels& labels = {}) const {
    return registry_ ? registry_->histogram(name, spec, labels) : noop_histogram();
  }

  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  // --- Causal flight recording (no-ops until the testbed enables it). ---
  bool flight_enabled() const { return flight_ != nullptr && flight_->enabled(); }

  /// Emit a complete event on this node's timeline. `ts` is the event's
  /// virtual start time; `dur` its virtual duration (often the processing
  /// cost charged to the clock, or a measured round-trip).
  void complete(std::string name, std::string category, std::uint64_t ts, std::uint64_t dur,
                std::vector<std::pair<std::string, std::string>> args = {}) const {
    if (tracing()) {
      annotate_trace(args);
      tracer_->complete(std::move(name), std::move(category), tid_, ts, dur, std::move(args));
    }
  }
  void instant(std::string name, std::string category, std::uint64_t ts,
               std::vector<std::pair<std::string, std::string>> args = {}) const {
    if (tracing()) {
      annotate_trace(args);
      tracer_->instant(std::move(name), std::move(category), tid_, ts, std::move(args));
    }
  }

  /// Attribute a rejected inbound frame (decode error, rate limit, replay)
  /// to the ambient flight context so whisper_trace can explain the drop,
  /// and bump the caller's per-layer counter. `reason` becomes the drop
  /// detail in the flight record ("decode:truncated", "ratelimit", ...).
  void drop_frame(Counter& counter, std::uint64_t ts, std::string reason) const {
    counter.add(1);
    if (flight_enabled() && flight_->context().valid()) {
      flight_->drop(flight_->context(), tid_, ts, std::move(reason));
    }
  }

  /// RAII span on this node's timeline (no-op when tracing is off). When an
  /// ambient flight context is armed, the span carries the trace id so
  /// Perfetto queries can join spans to flight records (parent linkage).
  Span span(std::string name, std::string category) const {
    Span s(tracer_, std::move(name), std::move(category), tid_);
    if (flight_ != nullptr && flight_->context().valid()) {
      s.annotate("trace", std::to_string(flight_->context().trace_id));
    }
    return s;
  }

 private:
  void annotate_trace(std::vector<std::pair<std::string, std::string>>& args) const {
    if (flight_ != nullptr && flight_->context().valid()) {
      args.emplace_back("trace", std::to_string(flight_->context().trace_id));
    }
  }

  Registry* registry_ = nullptr;
  Tracer* tracer_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  std::uint64_t tid_ = 0;
};

}  // namespace whisper::telemetry
