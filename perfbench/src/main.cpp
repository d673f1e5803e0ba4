// The rectpart benchmark binary.
//
//   perfbench --workload dense-paper|sparse-web|daemon-mix --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//   perfbench --selftest
//   perfbench --make-inputs DIR --workload W --seed N
//
// Runs one workload and prints, as the last stdout line, one JSON object
// with keys correct, attempted, failed and metrics: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1.  Reports, tables
// and check failures go to stderr.  Exit status: 0 on success, 1 when any
// answer fails its check, 2 on bad arguments.  --make-inputs is the set-up
// child a run starts: it writes the workload's inputs and exits.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "checker.hpp"
#include "common.hpp"
#include "core/partitioner.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

/// Metric names and units, in BENCHMARK.json's order.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},          {"ingest_s", "s"},
    {"solve_ms_gmean", "ms"},  {"sweep_s", "s"},
    {"lmax_over_lb", "ratio"}, {"peak_rss_mib", "MiB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"io.load_dense_ms", "ms"},
    {"io.load_coo_ms", "ms"},
    {"prefix.gamma_build_ms", "ms"},
    {"prefix.gamma_transpose_ms", "ms"},
    {"prefix.csr_build_ms", "ms"},
    {"prefix.csc_mirror_ms", "ms"},
    {"prefix.stripe_projection_ms", "ms"},
    {"prefix.substrate_mib", "MiB"},
    {"prefix.projections_built", "count"},
    {"prefix.sparse_rows_touched", "count"},
    {"prefix.tile_prefix_hits", "count"},
    {"prefix.tile_fringe_rows", "count"},
    {"prefix.csc_mirror_builds", "count"},
    {"oned.probe_calls", "count"},
    {"oned.oracle_loads", "count"},
    {"rectilinear.solve_ms", "ms"},
    {"jagged.heur_solve_ms", "ms"},
    {"jagged.exact_solve_ms", "ms"},
    {"hier.solve_ms", "ms"},
    {"recursive.solve_ms", "ms"},
    {"hier.nodes", "count"},
    {"util.pool_tasks_claimed", "count"},
    {"util.pool_queue_high_watermark", "count"},
    {"service.rtt_ms.warm", "ms"},
    {"service.rtt_ms.cold", "ms"},
    {"service.rtt_ms.coo", "ms"},
    {"service.rtt_ms.lineage", "ms"},
    {"service.rtt_ms.deadline", "ms"},
    {"service.server_ms", "ms"},
    {"service.wire_ms", "ms"},
    {"service.fingerprint_ms", "ms"},
    {"service.engine_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.deadline_returns", "count"},
    {"dynamic.kept_ratio", "ratio"},
    {"core.max_load_ms", "ms"},
};

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dense-paper|sparse-web|daemon-mix --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] | --selftest | --make-inputs "
               "DIR --workload W --seed N\n",
               why);
  std::exit(2);
}

int run_selftest() {
  int cases = 0;
  const std::vector<std::string> fails = perfbench::checker_selftest(&cases);
  for (const std::string& f : fails)
    std::fprintf(stderr, "checker selftest FAILED: %s\n", f.c_str());
  std::fprintf(stderr, "# checker selftest: %d cases, %zu failed\n", cases,
               fails.size());
  return fails.empty() ? 0 : 1;
}

int run_make_inputs(const Options& opt) {
  const std::string& dir = opt.inputs_dir;
  try {
    if (opt.workload == "dense-paper") {
      perfbench::write_dense_paper_inputs(dir, opt.seed);
    } else if (opt.workload == "sparse-web") {
      perfbench::write_sparse_web_inputs(dir, opt.seed);
    } else if (opt.workload == "daemon-mix") {
      perfbench::write_daemon_mix_inputs(dir, opt.seed);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: inputs of %s: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.self_path = argv[0];
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, make_inputs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return run_selftest();
    if (i + 1 >= argc) usage(("missing value after " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--make-inputs") {
        opt.inputs_dir = v;
        make_inputs = true;
      } else if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = opt.seconds > 0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--out-dir") {
        opt.out_dir = v;
      } else {
        usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + a).c_str());
    }
  }
  // The engines (and the input generators of the set-up child) run
  // single-threaded, as in the paper's evaluation and as the steadiest
  // measure on a shared host; RECTPART_THREADS (0 = all CPUs) overrides it
  // for the scaling reference.
  const char* width = std::getenv("RECTPART_THREADS");
  rectpart::set_threads(width != nullptr && *width != '\0' ? 0 : 1);
  if (make_inputs) {
    if (!have_workload || !have_seed)
      usage("--make-inputs needs --workload and --seed");
    return run_make_inputs(opt);
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (> 0) and --trace are required");

  // The checker guards every answer below, so it proves itself first.
  if (run_selftest() != 0) return 1;

  rectpart::register_builtin_partitioners();
  // The daemon's closed loop keeps one connection per CPU, at most four:
  // fewer leave CPUs idle and the round-trip tail then grows with their
  // wake-up latency.
  opt.threads = rectpart::num_threads();
  opt.connections = std::min(usable_cpus(), 4);

  // Keep freed memory in the heap, as a long-running process's warm heap
  // does: by default glibc hands a library pass's substrates (up to 8 MiB
  // each) back to the kernel and the next pass faults them in again, which
  // made dense-paper's ingest 2.6x slower and its timing follow the host's
  // page allocator; on daemon-mix the handler threads' arenas then moved
  // the peak RSS by 7% from run to run instead of 2%.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  Outcome out;
  try {
    if (opt.workload == "dense-paper") {
      out = perfbench::run_dense_paper(opt);
    } else if (opt.workload == "sparse-web") {
      out = perfbench::run_sparse_web(opt);
    } else if (opt.workload == "daemon-mix") {
      out = perfbench::run_daemon_mix(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const auto& [cls, n] : out.classes)
    std::fprintf(stderr, "# ops %-24s attempted %8lld failed %6lld\n",
                 cls.c_str(), static_cast<long long>(n.first),
                 static_cast<long long>(n.second));
  std::fprintf(stderr, "# ops %-24s attempted %8lld failed %6lld\n", "total",
               static_cast<long long>(out.attempted),
               static_cast<long long>(out.failed));
  for (const std::string& e : out.errors)
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  const bool correct = out.errors.empty();
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : opt.trace ? kPerLayer : kEndToEnd) {
    const auto it = out.values.find(name);
    const double v = it == out.values.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
