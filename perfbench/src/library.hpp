// The two library workloads (dense-paper, sparse-web) share one runner: a
// set of instances written to disk, a roster of (instance, engine, m)
// configurations, and passes that ingest every instance from its file and
// solve every configuration through the registry.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checker.hpp"
#include "common.hpp"

namespace perfbench {

struct LibInstance {
  std::string name;
  std::string path;  ///< the file the pass ingests (binary dense or RPC1 COO)
  bool coo = false;
  Reference ref;     ///< the checker's own copy of the loads (loaded by the run)
};

struct LibConfig {
  int instance = 0;
  std::string engine;
  int m = 0;
  /// In the timed roster (true) or only in the verification pass after the
  /// timed passes that feeds the -hor/-ver/-auto orderings (false).
  bool timed = true;
};

struct LibSpec {
  std::vector<LibInstance> instances;
  std::vector<LibConfig> configs;
};

/// Describes a workload's instances (file paths under `dir`, no data) and
/// its roster.
using LibRoster = std::function<LibSpec(const std::string& dir)>;

/// Runs a library workload: set-up (input generation in a child process,
/// three times, median reported), one untimed checked pass over the timed
/// roster, timed passes until `seconds` have elapsed, then the peak RSS,
/// then an untimed pass over the verification-only configurations and the
/// ordering checks.  Fills the end-to-end metrics (tracing off) or the
/// per-layer metrics (tracing on).
[[nodiscard]] Outcome run_library(const Options& opt, const LibRoster& roster);

/// Adds the -hor/-ver twins and jag-m-heur-auto (verification-only) for
/// every jagged -best engine in the timed roster.
void add_twins(LibSpec* spec);

}  // namespace perfbench
