// The three workloads of the benchmark.  Each has two halves: the set-up
// child process (perfbench --make-inputs) writes its inputs from the seed,
// and the measured process runs it on the files.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace perfbench {

/// Where a workload's inputs, trace and socket live.
[[nodiscard]] inline std::string workload_dir(const Options& opt) {
  return opt.out_dir + "/" + opt.workload;
}

/// The fresh directory set-up repetition `rep` writes its inputs into.
[[nodiscard]] inline std::string inputs_dir(const Options& opt, int rep) {
  return workload_dir(opt) + "/inputs-" + std::to_string(rep);
}

/// Empties the workload's directory (an earlier run's inputs and trace).
inline void clear_workload_dir(const Options& opt) {
  std::filesystem::remove_all(workload_dir(opt));
  std::filesystem::create_directories(workload_dir(opt));
}

/// Removes every set-up repetition's inputs but the last one's.
inline void drop_earlier_inputs(const Options& opt) {
  for (int rep = 0; rep + 1 < kSetupReps; ++rep)
    std::filesystem::remove_all(inputs_dir(opt, rep));
}

/// Input writers: each instance's file in the program's format plus the
/// checker's reference copy of it (reference_path), all made from `seed`.
void write_dense_paper_inputs(const std::string& dir, std::uint64_t seed);
void write_sparse_web_inputs(const std::string& dir, std::uint64_t seed);
void write_daemon_mix_inputs(const std::string& dir, std::uint64_t seed);

/// The paper's evaluation through the library on a warm dense Γ.
[[nodiscard]] Outcome run_dense_paper(const Options& opt);

/// Power-law COO read from RPC1 files into the CSR substrate.
[[nodiscard]] Outcome run_sparse_web(const Options& opt);

/// A closed loop of mixed requests against an in-process daemon.
[[nodiscard]] Outcome run_daemon_mix(const Options& opt);

}  // namespace perfbench
