// Shared plumbing of the rectpart benchmark: run options, the result record
// printed as the last stdout line, order statistics, and the layer ledger
// that turns spans around calls into the library into per-layer self times.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  std::string self_path;  ///< this binary, to run set-up in a child process
  std::string inputs_dir;  ///< --make-inputs: where the child writes
  int threads = 1;      ///< library width (global pool)
  int connections = 1;  ///< daemon-mix closed-loop clients
};

/// What a workload hands back to main(): the op ledger and both metric sets.
/// Every workload fills every end-to-end metric (tracing off) or every
/// per-layer metric (tracing on); a layer a workload never enters reads 0.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< check failures (any makes the run fail)
  /// Metric values by name; main() prints them in BENCHMARK.json's order
  /// with their units.
  std::map<std::string, double> values;
  /// Ops per class, for the stderr report: name -> {attempted, failed}.
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> classes;

  void set(const std::string& name, double value) { values[name] = value; }
  void count(const std::string& cls, std::int64_t attempted_n,
             std::int64_t failed_n) {
    auto& c = classes[cls];
    c.first += attempted_n;
    c.second += failed_n;
    attempted += attempted_n;
    failed += failed_n;
  }
  void error(const std::string& what) {
    if (errors.size() < 50) errors.push_back(what);
  }
};

// -- order statistics -------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Geometric mean of positive values (non-positive values are clamped to a
/// nanosecond so a sub-resolution sample cannot zero the mean).
[[nodiscard]] double gmean(const std::vector<double>& v);

/// getrusage high-water mark of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 5;

/// Runs `perfbench --make-inputs DIR` for the workload and seed of `opt` in
/// a child process and waits for it: the child generates the inputs and
/// writes the program's files and the checker's reference files into DIR,
/// so their memory never counts in this process's high-water mark.  Each
/// repetition writes into a new DIR: rewriting an earlier repetition's
/// files in place made set-up time swing by 2x.  Returns the child's wall
/// time in ms; throws std::runtime_error when it fails.
double make_inputs_in_child(const Options& opt, const std::string& dir);

/// Prints the set-up repetitions' times to stderr.
void print_setup_ms(const std::vector<double>& ms);

/// Host last-level cache as sysfs reports it (for the stderr report).
[[nodiscard]] std::string last_level_cache();

/// The work counters the per-layer metrics report, by metric name.
[[nodiscard]] const std::vector<std::pair<const char*, rectpart::obs::Counter>>&
layer_counters();

// -- layer ledger -----------------------------------------------------------

/// Process-wide per-layer accumulator.  Off by default; when on, every
/// Layer scope records its wall time and its self time (wall time minus the
/// time its nested Layer scopes cover) under its name, and also opens an
/// obs::Span of the same name so the chrome trace shows the same tree.
class Ledger {
 public:
  struct Entry {
    std::int64_t calls = 0;
    double total_ms = 0;
    double self_ms = 0;
  };

  static void enable(bool on);
  [[nodiscard]] static bool enabled();
  static void add(const char* name, double total_ms, double self_ms);
  /// Snapshot of every entry (merged across threads).
  [[nodiscard]] static std::map<std::string, Entry> snapshot();
  static void reset();
};

/// RAII layer span; a no-op unless the ledger is enabled.
class Layer {
 public:
  explicit Layer(const char* name);
  ~Layer();
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

 private:
  const char* name_ = nullptr;
  std::optional<rectpart::obs::Span> span_;
  Clock::time_point start_{};
  double child_ms_ = 0;
  Layer* parent_ = nullptr;
};

/// Prints a per-layer table to stderr: calls, total and self ms per layer,
/// each self time as a share of the root op's total, and the residual (the
/// root op's own self time).
void print_layer_table(const std::string& workload, const std::string& root);

}  // namespace perfbench
