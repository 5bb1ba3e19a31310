// Shared pieces of the WHISPER benchmark: run options, the result record
// printed as the last stdout line, the in-memory span tracer, process
// meters, and the output checks that each workload applies (kept here so
// the self-test can feed them corrupted inputs).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chord/tchord.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "net/cpumeter.hpp"
#include "whisper/node.hpp"

namespace perfbench {

using whisper::Bytes;
using whisper::BytesView;
using whisper::NodeId;
using SteadyClock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Host seconds since `t`.
inline double since(SteadyClock::time_point t) {
  return std::chrono::duration<double>(SteadyClock::now() - t).count();
}

/// Set at the top of main(): the start of the cold set-up.
extern SteadyClock::time_point g_process_start;

// ---------------------------------------------------------------------------
// Result record.

struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Check failures, printed on stderr (the JSON line carries only the flag).
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a check outcome; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

/// The single JSON line the benchmark ends with.
std::string result_json(const Result& r);
/// Shortest round-trip decimal form of `v` (all its digits, no padding).
std::string fmt_number(double v);

// ---------------------------------------------------------------------------
// Span tracer: name, start, end, parent, and an op id shared by the spans of
// one operation. Spans live in memory and are written out once at the end.

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Open a span; returns its id (0 while tracing is off).
  std::uint64_t begin(std::string name, std::uint64_t op = 0, std::uint64_t parent = 0);
  void end(std::uint64_t id);

  /// Closed spans of `name`, as durations in microseconds.
  std::vector<double> durations_us(const std::string& name) const;
  /// Sum of closed durations of `name`, in seconds.
  double total_s(const std::string& name) const;

  /// Write every span as one JSON object per line; false on I/O error.
  bool write_jsonl(const std::string& path) const;
  /// Write the spans of a traced run to .bench_out/trace-<workload>-<seed>.jsonl
  /// (relative to the working directory); reports a failure on stderr.
  void write_run(const std::string& workload, std::uint64_t seed) const;
  std::size_t size() const { return spans_.size(); }

 private:
  static std::int64_t now_ns();
  bool enabled_;
  std::vector<Span> spans_;  // index = id - 1
};

/// RAII span around a synchronous call.
class Scoped {
 public:
  Scoped(Tracer& t, std::string name, std::uint64_t op = 0, std::uint64_t parent = 0)
      : t_(t), id_(t.begin(std::move(name), op, parent)) {}
  ~Scoped() { t_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::uint64_t id_;
};

// ---------------------------------------------------------------------------
// Process meters.

/// CPU time of the whole process (all threads), seconds.
double process_cpu_s();
/// Peak resident set size so far, KiB.
double peak_rss_kib();

/// Host cost of a measured window split into equal chunks. The window's
/// wall and CPU time are estimated as chunks × the median chunk, which a
/// burst of outside load on a shared host moves far less than the plain
/// total; the totals stay available as reference figures.
class ChunkMeter {
 public:
  explicit ChunkMeter(std::size_t chunks) : wall_(chunks, 0.0), cpu_(chunks, 0.0) {}
  /// Start timing chunk 0.
  void start();
  /// Charge the time since the last mark to the current chunk and move on
  /// to the next one (the last chunk absorbs any further charges).
  void next();
  std::size_t current() const { return cur_; }
  std::size_t chunks() const { return wall_.size(); }
  double wall_s() const;
  double cpu_s() const;
  double total_wall_s() const;
  double total_cpu_s() const;
  const std::vector<double>& chunk_wall() const { return wall_; }

 private:
  void charge();
  std::vector<double> wall_, cpu_;
  std::size_t cur_ = 0;
  SteadyClock::time_point last_wall_{};
  double last_cpu_ = 0;
};

/// Median / percentile (linear interpolation) of a sample; 0 when empty.
double percentile(std::vector<double> v, double p);

/// Sum of one CpuMeter category over nodes, seconds.
double cpu_total_s(const std::vector<whisper::WhisperNode*>& nodes, whisper::net::CpuCategory c);

/// Per-node counters the per-layer table reads, summed over a population.
struct LayerCounters {
  double cpu_s[static_cast<std::size_t>(whisper::net::CpuCategory::kCount)] = {};
  std::uint64_t wcl_attempts = 0;
  std::uint64_t wcl_sends = 0;
  std::uint64_t wcl_forwarded = 0;
  std::uint64_t wcl_delivered = 0;
  std::uint64_t wcl_unclean = 0;  // retries, failures, expiries
  std::uint64_t relayed_sends = 0;
  std::uint64_t ppss_exchanges = 0;
};
LayerCounters read_counters(const std::vector<whisper::WhisperNode*>& nodes,
                            const std::vector<whisper::GroupId>& groups);
/// b - a, field by field.
LayerCounters diff(const LayerCounters& b, const LayerCounters& a);

// ---------------------------------------------------------------------------
// Operations and their checks.

/// Payload of message `id`: the id in the first 8 bytes, then bytes drawn
/// from (seed, id). The receiver regenerates it to check the delivery.
Bytes make_payload(std::uint64_t seed, std::uint64_t id, std::size_t size);
/// Message id carried by a payload (nullopt if too short).
std::optional<std::uint64_t> payload_id(BytesView payload);

/// One open-loop operation: a message or a lookup, its due time and outcome.
struct Op {
  enum Kind : std::uint8_t { kMsg, kBulk, kLookup };
  Kind kind = kMsg;
  std::uint64_t id = 0;
  std::int64_t due = 0;       // clock µs
  std::size_t src = 0;        // member index
  std::size_t dst = 0;        // member index (messages)
  std::uint64_t key = 0;      // lookups
  // Outcome, written once by the completing callback.
  std::int64_t done = -1;     // clock µs; -1 = not completed
  std::uint32_t deliveries = 0;
  bool wrong = false;         // wrong receiver, payload or owner
  std::uint64_t owner = 0;
  std::uint32_t hops = 0;
};

/// A fixed-rate schedule of one operation kind over [0, window).
struct Stream {
  Op::Kind kind;
  double rate_per_s;
};
/// Open-loop schedule over `window_us` (relative due times), sorted by due
/// time. Sources/destinations are distinct members drawn from `seed`.
std::vector<Op> make_schedule(const std::vector<Stream>& streams, std::int64_t window_us,
                              std::size_t members, std::uint64_t seed);

/// Check one delivered message against what was sent. Returns an empty
/// string when it matches, else what is wrong.
std::string check_delivery(std::uint64_t seed, const Op& op, std::size_t size,
                           std::size_t receiver, BytesView payload);

/// The owner the ring must name for `key`: its successor among `ring_keys`.
NodeId expected_owner(const std::map<whisper::chord::ChordKey, NodeId>& ring,
                      whisper::chord::ChordKey key);
/// Check a lookup's answer against the ring. Returns an empty string when
/// `answered` owns `key`, else what is wrong.
std::string check_owner(const std::map<whisper::chord::ChordKey, NodeId>& ring,
                        whisper::chord::ChordKey key, NodeId answered);
std::map<whisper::chord::ChordKey, NodeId> build_ring(const std::vector<NodeId>& members);

/// Ids named by a member's private view that are not members of the group.
std::vector<NodeId> view_outsiders(const std::vector<NodeId>& view,
                                   const std::vector<NodeId>& members);

/// FNV-1a accumulator for outcome digests.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

// ---------------------------------------------------------------------------
// Crypto probes: known-answer checks and timings at the workload's sizes.

/// Known-answer and round-trip checks (NIST SP 800-38A F.5.1, FIPS 180-4
/// "abc", onion build/peel over a probe path). Adds failures to `r`.
/// With `corrupt`, one byte of every expected answer is flipped, so each
/// check must fail (the self-test's proof that the checks can trip).
void crypto_checks(Result& r, bool corrupt = false);
/// Time onion build/peel at 64 B and 16 KiB over `hops` hops, and AES-CTR /
/// SHA-256 throughput; fills the crypto.* per-layer metrics.
void crypto_timings(Result& r, Tracer& tracer, std::size_t hops, std::size_t rsa_bits);

/// The per-layer metric names every traced run prints, with units.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// The end-to-end metric names every untraced run prints, with units.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();

// Workloads. Each fills `r`; a nonzero return means the run could not
// proceed at all (set-up failed), and no result is printed.
int run_live_group(const Options& o, Result& r);
int run_sim_paper(const Options& o, Result& r);
int run_sim_scale(const Options& o, Result& r);
int run_selftest();

/// The sim workloads at a chosen size; `virtual_s_per_s` sets the virtual
/// window per second of --seconds. Each returns a digest of its simulated
/// outcomes (op results, event and packet counts, per-node totals).
/// `metrics_jsonl`, when given, receives ScaleTestbed::merged_metrics_jsonl()
/// at the end of the run.
std::uint64_t sim_paper_at(const Options& o, Result& r, std::size_t nodes, std::size_t groups,
                        double virtual_s_per_s);
std::uint64_t sim_scale_at(const Options& o, Result& r, std::size_t nodes, std::size_t shards,
                        double virtual_s_per_s, std::string* metrics_jsonl);

}  // namespace perfbench
