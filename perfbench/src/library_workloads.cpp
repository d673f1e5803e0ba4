// Inputs and rosters of the two library workloads.
#include <filesystem>

#include "io/matrix_io.hpp"
#include "library.hpp"
#include "picmag/picmag.hpp"
#include "workloads.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {

namespace {

using namespace rectpart;

void write_dense(const std::string& dir, const std::string& name,
                 const LoadMatrix& a) {
  const std::string path = dir + "/" + name + ".bin";
  save_matrix_binary(a, path);
  Reference::dense(a.rows(), a.cols(),
                   std::vector<std::int64_t>(a.begin(), a.end()))
      .save(reference_path(path));
}

void write_coo(const std::string& dir, const std::string& name,
               const CooInstance& coo) {
  const std::string path = dir + "/" + name + ".rpc";
  save_coo_binary(coo, path);
  std::vector<Reference::Triple> t;
  t.reserve(coo.entries.size());
  for (const CooEntry& e : coo.entries) t.push_back({e.r, e.c, e.v});
  Reference::sparse(coo.n1, coo.n2, std::move(t)).save(reference_path(path));
}

void add_roster(LibSpec* spec, int instance, const std::vector<int>& ms,
                const std::vector<std::string>& engines) {
  for (const int m : ms)
    for (const std::string& e : engines)
      spec->configs.push_back(LibConfig{instance, e, m, true});
}

// dense-paper: two PIC-MAG snapshots (512², iterations 5000 and 10000 of
// one seeded simulation) and the peak and multipeak synthetics at 1024²;
// every paper engine over m in {16, 64, 256}; jag-m-opt on the two
// snapshots at m = 16 only (its O(n·m) probes cost 0.15 s there and grow
// to seconds at larger m or n).
const std::vector<std::string> kDenseNames = {"picmag-5000", "picmag-10000",
                                              "peak-1024", "multipeak-1024"};

// sparse-web: power-law COO instances on both sides of the exact engines'
// StripeProbeCache tiers —
//   web-0..5  2^17 x 2^17, 2^19 entries each: columns > 2^16, the tiled
//             oracle, and a dense Γ of 128 GiB; six instances so that one
//             seed's data-dependent solve times (rect-nicol sweeps,
//             bisection depths) average out;
//   skinny    2^16 x 2^8, 2^16 entries: > 2^23 cells but <= 2^16 columns
//             either way round, the scatter cache;
//   small     2^10 x 2^10, 2^15 entries: < 2^23 cells, the Γ-row ladder.
// Timed: the heuristics on every instance (m = 64 on web, 16 elsewhere),
// spiral-opt and jag-pq-opt on skinny and small, jag-m-opt on small.
// jag-pq-opt on web-0 (m = 16) runs in the verification pass only: its
// bisection depth swings its time from 0.1 to 0.7 s between seeds, more
// than the whole pass may vary.  jag-m-opt stays off skinny, where its
// -ver search runs 2^16 stripes deep through the scatter cache for minutes.
constexpr int kWeb = 6;

std::vector<std::string> sparse_names() {
  std::vector<std::string> names;
  for (int k = 0; k < kWeb; ++k) names.push_back("web-" + std::to_string(k));
  names.emplace_back("skinny");
  names.emplace_back("small");
  return names;
}

LibSpec instances(const std::string& dir, const std::vector<std::string>& names,
                  bool coo) {
  LibSpec spec;
  for (const std::string& name : names)
    spec.instances.push_back(
        LibInstance{name, dir + "/" + name + (coo ? ".rpc" : ".bin"), coo, {}});
  return spec;
}

}  // namespace

void write_dense_paper_inputs(const std::string& dir, std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  PicMagConfig cfg;
  cfg.n1 = cfg.n2 = 512;
  cfg.seed = seed;
  PicMagSimulator sim(cfg);
  write_dense(dir, kDenseNames[0], sim.snapshot_at(5000));
  write_dense(dir, kDenseNames[1], sim.snapshot_at(10000));
  write_dense(dir, kDenseNames[2], gen_peak(1024, 1024, seed));
  write_dense(dir, kDenseNames[3], gen_multipeak(1024, 1024, 3, seed));
}

void write_sparse_web_inputs(const std::string& dir, std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  const std::vector<std::string> names = sparse_names();
  for (int k = 0; k < kWeb; ++k)
    write_coo(dir, names[static_cast<std::size_t>(k)],
              gen_powerlaw_coo(1 << 17, 1 << 17, 1 << 19,
                               seed * 16 + static_cast<unsigned>(k)));
  write_coo(dir, names[kWeb],
            gen_powerlaw_coo(1 << 16, 1 << 8, 1 << 16, seed * 16 + kWeb));
  write_coo(dir, names[kWeb + 1],
            gen_powerlaw_coo(1 << 10, 1 << 10, 1 << 15, seed * 16 + kWeb + 1));
}

Outcome run_dense_paper(const Options& opt) {
  return run_library(opt, [](const std::string& dir) {
    LibSpec spec = instances(dir, kDenseNames, false);
    const std::vector<std::string> engines = {
        "rect-uniform", "rect-nicol",   "jag-pq-heur", "jag-m-heur",
        "hier-rb",      "hier-relaxed", "jag-pq-opt",  "spiral-opt"};
    for (int i = 0; i < static_cast<int>(kDenseNames.size()); ++i)
      add_roster(&spec, i, {16, 64, 256}, engines);
    add_roster(&spec, 0, {16}, {"jag-m-opt"});
    add_roster(&spec, 1, {16}, {"jag-m-opt"});
    return spec;
  });
}

Outcome run_sparse_web(const Options& opt) {
  return run_library(opt, [](const std::string& dir) {
    LibSpec spec = instances(dir, sparse_names(), true);
    const std::vector<std::string> heuristics = {
        "rect-uniform", "rect-nicol", "jag-pq-heur",
        "jag-m-heur",   "hier-rb",    "hier-relaxed"};
    for (int k = 0; k < kWeb; ++k) add_roster(&spec, k, {64}, heuristics);
    for (const char* engine : {"jag-pq-heur", "jag-pq-opt"})
      spec.configs.push_back(LibConfig{0, engine, 16, false});
    for (int i = kWeb; i <= kWeb + 1; ++i) {
      add_roster(&spec, i, {16}, heuristics);
      add_roster(&spec, i, {16}, {"spiral-opt", "jag-pq-opt"});
    }
    add_roster(&spec, kWeb + 1, {16}, {"jag-m-opt"});
    return spec;
  });
}

}  // namespace perfbench
