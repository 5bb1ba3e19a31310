// whisper_perfbench: one workload per run, ending with a single JSON line.
//
//   whisper_perfbench --workload <live_group|sim_paper|sim_scale>
//                     --seed <n> --seconds <s> --trace <0|1>
//   whisper_perfbench --selftest
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 the
// run records spans and prints the per-layer metrics instead (the spans go
// to .bench_out/trace-<workload>-<seed>.jsonl under the working directory).
// Progress and check failures go to stderr.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: whisper_perfbench --workload <live_group|sim_paper|sim_scale> "
               "--seed <n> --seconds <s> --trace <0|1> | --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::g_process_start = perfbench::SteadyClock::now();
  perfbench::Options o;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--selftest") selftest = true;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (selftest) return perfbench::run_selftest();
  if (o.seconds <= 0) return usage();

  perfbench::Result r;
  int rc = 0;
  if (o.workload == "live_group") rc = perfbench::run_live_group(o, r);
  else if (o.workload == "sim_paper") rc = perfbench::run_sim_paper(o, r);
  else if (o.workload == "sim_scale") rc = perfbench::run_sim_scale(o, r);
  else return usage();
  if (rc != 0) return rc;

  perfbench::crypto_checks(r);
  for (const auto& p : r.problems) std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());

  // Keep exactly the metric set of this mode; a layer a workload does not
  // exercise reads 0 in the per-layer table.
  const auto& names = o.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
  perfbench::Result out = r;
  out.metrics.clear();
  for (const auto& [name, unit] : names) {
    auto it = r.metrics.find(name);
    out.set(name, it == r.metrics.end() ? 0.0 : it->second.value, unit);
  }
  // Figures outside this mode's set (the other mode's metrics, and the
  // msg_p99_us tail, kept as a reference figure) go to stderr.
  for (const auto& [name, m] : r.metrics) {
    if (!out.metrics.count(name)) {
      std::fprintf(stderr, "  reference %-30s %14s %s\n", name.c_str(),
                   perfbench::fmt_number(m.value).c_str(), m.unit.c_str());
    }
  }
  if (o.trace) {
    for (const auto& [name, unit] : names) {
      std::fprintf(stderr, "  %-30s %14s %s\n", name.c_str(),
                   perfbench::fmt_number(out.metrics[name].value).c_str(), unit.c_str());
    }
  }
  std::printf("%s\n", perfbench::result_json(out).c_str());
  std::fflush(stdout);
  // Skip global teardown of multi-thousand-node testbeds: the OS reclaims it.
  std::_Exit(0);
}
