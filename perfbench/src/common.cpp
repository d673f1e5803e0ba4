#include "common.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>

extern char** environ;

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double gmean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double acc = 0;
  for (const double x : v) acc += std::log(std::max(x, 1e-6));
  return std::exp(acc / static_cast<double>(v.size()));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double make_inputs_in_child(const Options& opt, const std::string& dir) {
  std::vector<std::string> args = {
      opt.self_path, "--make-inputs", dir, "--workload", opt.workload,
      "--seed",      std::to_string(opt.seed)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const auto t0 = Clock::now();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, opt.self_path.c_str(), nullptr, nullptr,
                             argv.data(), environ);
  if (rc != 0)
    throw std::runtime_error("cannot start " + opt.self_path + ": error " +
                             std::to_string(rc));
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  const double ms = ms_since(t0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("input generation failed (child status " +
                             std::to_string(status) + ")");
  return ms;
}

void print_setup_ms(const std::vector<double>& ms) {
  std::fprintf(stderr, "# set-up ms:");
  for (const double v : ms) std::fprintf(stderr, " %.1f", v);
  std::fprintf(stderr, "\n");
}

std::string last_level_cache() {
  std::string best;
  int best_level = -1;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level(dir + "level"), size(dir + "size");
    int lv = 0;
    std::string sz;
    if (!(level >> lv) || !(size >> sz)) continue;
    if (lv > best_level) {
      best_level = lv;
      char buf[96];
      std::snprintf(buf, sizeof buf, "L%d %s", lv, sz.c_str());
      best = std::string(buf);
    }
  }
  return best.empty() ? "unknown" : best;
}

const std::vector<std::pair<const char*, rectpart::obs::Counter>>&
layer_counters() {
  using rectpart::obs::Counter;
  static const std::vector<std::pair<const char*, Counter>> list = {
      {"prefix.projections_built", Counter::kProjectionsBuilt},
      {"prefix.sparse_rows_touched", Counter::kSparseRowsTouched},
      {"prefix.tile_prefix_hits", Counter::kTilePrefixHits},
      {"prefix.tile_fringe_rows", Counter::kTileFringeRows},
      {"prefix.csc_mirror_builds", Counter::kCscMirrorBuilds},
      {"oned.probe_calls", Counter::kOnedProbeCalls},
      {"oned.oracle_loads", Counter::kOnedOracleLoads},
      {"hier.nodes", Counter::kHierNodes},
      {"util.pool_tasks_claimed", Counter::kPoolTasksClaimed},
      {"util.pool_queue_high_watermark", Counter::kPoolQueueHighWatermark},
  };
  return list;
}

// -- layer ledger -----------------------------------------------------------

namespace {

std::atomic<bool> g_ledger_on{false};
std::mutex g_ledger_mu;
std::map<std::string, Ledger::Entry> g_ledger;  // guarded by g_ledger_mu
thread_local Layer* tl_top = nullptr;

}  // namespace

void Ledger::enable(bool on) { g_ledger_on.store(on); }
bool Ledger::enabled() { return g_ledger_on.load(std::memory_order_relaxed); }

void Ledger::add(const char* name, double total_ms, double self_ms) {
  std::lock_guard<std::mutex> lock(g_ledger_mu);
  Entry& e = g_ledger[name];
  e.calls += 1;
  e.total_ms += total_ms;
  e.self_ms += self_ms;
}

std::map<std::string, Ledger::Entry> Ledger::snapshot() {
  std::lock_guard<std::mutex> lock(g_ledger_mu);
  return g_ledger;
}

void Ledger::reset() {
  std::lock_guard<std::mutex> lock(g_ledger_mu);
  g_ledger.clear();
}

Layer::Layer(const char* name) {
  if (!Ledger::enabled()) return;
  name_ = name;
  span_.emplace(name);
  parent_ = tl_top;
  tl_top = this;
  start_ = Clock::now();
}

Layer::~Layer() {
  if (name_ == nullptr) return;
  const double total = ms_since(start_);
  span_.reset();
  tl_top = parent_;
  if (parent_ != nullptr) parent_->child_ms_ += total;
  Ledger::add(name_, total, total - child_ms_);
}

void print_layer_table(const std::string& workload, const std::string& root) {
  const auto entries = Ledger::snapshot();
  const auto it = entries.find(root);
  const double op_ms = it == entries.end() ? 0 : it->second.total_ms;
  std::fprintf(stderr, "# per-layer table, workload %s (root op %s, %.3f ms)\n",
               workload.c_str(), root.c_str(), op_ms);
  std::fprintf(stderr, "# %-34s %9s %12s %12s %8s\n", "layer", "calls",
               "total_ms", "self_ms", "self%op");
  double covered = 0;
  for (const auto& [name, e] : entries) {
    if (name == root) continue;
    const double share = op_ms > 0 ? 100.0 * e.self_ms / op_ms : 0;
    covered += e.self_ms;
    std::fprintf(stderr, "  %-34s %9lld %12.3f %12.3f %7.2f%%\n",
                 name.c_str(), static_cast<long long>(e.calls), e.total_ms,
                 e.self_ms, share);
  }
  if (it != entries.end()) {
    const double residual = it->second.self_ms;
    std::fprintf(stderr,
                 "  %-34s %9lld %12.3f %12.3f %7.2f%%   (residual: op time "
                 "no layer covers)\n",
                 root.c_str(), static_cast<long long>(it->second.calls),
                 op_ms, residual, op_ms > 0 ? 100.0 * residual / op_ms : 0);
    std::fprintf(stderr, "# layers cover %.2f%% of the op time\n",
                 op_ms > 0 ? 100.0 * covered / op_ms : 0);
  }
}

}  // namespace perfbench
