#include "library.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "core/partitioner.hpp"
#include "io/matrix_io.hpp"
#include "obs/counters.hpp"
#include "prefix/stripe_projection.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace rectpart;

/// One instance ingested for a pass: the substrate the engines run on.
struct Substrate {
  std::unique_ptr<PrefixSum2D> gamma;
  std::unique_ptr<SparseLoadCSR> csr;

  [[nodiscard]] LoadSubstrate view() const {
    return gamma ? LoadSubstrate(*gamma) : LoadSubstrate(*csr);
  }
};

/// Substrate array bytes as allocated: Γ is (n1+1)(n2+1) int64 words, a CSR
/// is row offsets + int32 columns + int64 running sums (+ its tile grid).
double csr_bytes(const SparseLoadCSR& s) {
  double b = 8.0 * static_cast<double>(s.row_start().size()) +
             4.0 * static_cast<double>(s.col_index().size()) +
             8.0 * static_cast<double>(s.value_prefix().size());
  if (s.tiles().enabled())
    b += 8.0 * (s.tiles().tile_rows() + 1.0) * (s.tiles().tile_cols() + 1.0);
  return b;
}
double substrate_bytes(const Substrate& s) {
  if (s.gamma) {
    const double one =
        8.0 * (s.gamma->rows() + 1.0) * (s.gamma->cols() + 1.0);
    return 2 * one;  // Γ and its transposed view, both built per pass
  }
  return csr_bytes(*s.csr) + csr_bytes(s.csr->transposed());
}

Substrate ingest(const LibInstance& in) {
  Substrate s;
  if (!in.coo) {
    LoadMatrix a;
    {
      Layer l("io.load_dense");
      a = load_matrix_binary(in.path);
    }
    Layer l("prefix.gamma_build");
    s.gamma = std::make_unique<PrefixSum2D>(a);
  } else {
    CooInstance coo;
    {
      Layer l("io.load_coo");
      coo = load_coo_binary(in.path);
    }
    Layer l("prefix.csr_build");
    s.csr = std::make_unique<SparseLoadCSR>(
        SparseLoadCSR::from_coo(coo.n1, coo.n2, std::move(coo.entries)));
  }
  return s;
}

const char* family_layer(const std::string& engine) {
  const PartitionerInfo info = partitioner_info(engine);
  if (info.family == "rectilinear") return "rectilinear.solve";
  if (info.family == "jagged")
    return info.exact ? "jagged.exact_solve" : "jagged.heur_solve";
  if (info.family == "hierarchical") return "hier.solve";
  return "recursive.solve";
}

std::uint64_t hash_rects(const Partition& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Rect& r : p.rects)
    for (const int v : {r.x0, r.x1, r.y0, r.y1}) {
      h ^= static_cast<std::uint32_t>(v);
      h *= 0x100000001b3ULL;
    }
  return h;
}

struct ConfigState {
  std::unique_ptr<Partitioner> algo;
  const char* layer = "";
  std::vector<double> ms;      ///< timed-pass solve times
  std::int64_t lmax = -1;      ///< from the verification pass
  std::uint64_t hash = 0;      ///< partition hash, verification pass
};

}  // namespace

void add_twins(LibSpec* spec) {
  std::vector<LibConfig> extra;
  std::set<std::string> have;
  for (const LibConfig& c : spec->configs)
    have.insert(std::to_string(c.instance) + "|" + std::to_string(c.m) + "|" +
                c.engine);
  const auto want = [&](const LibConfig& base, const std::string& engine) {
    const std::string key = std::to_string(base.instance) + "|" +
                            std::to_string(base.m) + "|" + engine;
    if (have.insert(key).second)
      extra.push_back(LibConfig{base.instance, engine, base.m, false});
  };
  for (const LibConfig& c : spec->configs) {
    if (c.engine == "jag-pq-heur" || c.engine == "jag-pq-opt" ||
        c.engine == "jag-m-heur" || c.engine == "jag-m-opt") {
      want(c, c.engine + "-hor");
      want(c, c.engine + "-ver");
    }
    if (c.engine == "jag-m-heur") want(c, "jag-m-heur-auto");
  }
  spec->configs.insert(spec->configs.end(), extra.begin(), extra.end());
}

Outcome run_library(const Options& opt, const LibRoster& roster) {
  Outcome out;
  const std::string dir = workload_dir(opt);

  // -- set-up in a child process, kSetupReps times; the last one's files
  // are the run's inputs.
  clear_workload_dir(opt);
  std::vector<double> setup_ms;
  for (int rep = 0; rep < kSetupReps; ++rep)
    setup_ms.push_back(make_inputs_in_child(opt, inputs_dir(opt, rep)));
  drop_earlier_inputs(opt);
  print_setup_ms(setup_ms);
  LibSpec spec = roster(inputs_dir(opt, kSetupReps - 1));
  add_twins(&spec);
  for (LibInstance& in : spec.instances)
    in.ref = Reference::load(reference_path(in.path));

  std::vector<ConfigState> state(spec.configs.size());
  for (std::size_t i = 0; i < spec.configs.size(); ++i) {
    state[i].algo = make_partitioner(spec.configs[i].engine);
    state[i].layer = family_layer(spec.configs[i].engine);
  }

  // One pass: ingest each instance, force its transposed view (the -VER /
  // -best engines' shared lazy build), solve its configurations, check
  // each answer.  kFirst (untimed, also the warm-up) checks every timed
  // configuration in full and records its partition; kTimed records solve
  // times and requires the recorded partition back; kExtra checks the
  // verification-only configurations.  Returns {ingest ms, sweep ms}.
  enum class Pass { kFirst, kTimed, kExtra };
  double substrate_mib = 0;
  // Work counted by the traced stripe-projection replay, which the
  // per-layer counters leave out: they report the program's own work.
  obs::CounterSnapshot replay_work;
  const auto pass = [&](Pass kind) {
    Layer op("op.pass");
    double ingest_ms = 0, sweep_ms = 0, bytes = 0;
    for (std::size_t inst = 0; inst < spec.instances.size(); ++inst) {
      const bool wanted = std::any_of(
          spec.configs.begin(), spec.configs.end(), [&](const LibConfig& c) {
            return c.instance == static_cast<int>(inst) &&
                   c.timed == (kind != Pass::kExtra);
          });
      if (!wanted) continue;
      const LibInstance& in = spec.instances[inst];
      auto t0 = Clock::now();
      const Substrate sub = ingest(in);
      ingest_ms += ms_since(t0);
      out.count("ingest", 1, 0);
      const LoadSubstrate view = sub.view();
      t0 = Clock::now();
      if (in.coo) {
        Layer l("prefix.csc_mirror");
        (void)sub.csr->transposed();
      } else {
        Layer l("prefix.gamma_transpose");
        (void)sub.gamma->transposed();
      }
      sweep_ms += ms_since(t0);
      bytes += substrate_bytes(sub);
      if (Ledger::enabled()) {
        // Replay: one row-stripe projection batch over 16 even stripes.
        std::vector<int> bounds;
        for (int s = 0; s <= 16; ++s)
          bounds.push_back(static_cast<int>(
              static_cast<std::int64_t>(view.rows()) * s / 16));
        const obs::CounterSnapshot r0 = obs::counters_snapshot();
        {
          Layer l("prefix.stripe_projection");
          (void)row_stripe_projections(view, bounds);
        }
        replay_work.merge(obs::counters_snapshot().delta_since(r0));
      }
      for (std::size_t i = 0; i < spec.configs.size(); ++i) {
        const LibConfig& c = spec.configs[i];
        if (c.instance != static_cast<int>(inst) ||
            c.timed == (kind == Pass::kExtra))
          continue;
        ConfigState& st = state[i];
        Partition p;
        {
          Layer l(st.layer);
          const auto s0 = Clock::now();
          p = st.algo->run(view, c.m);
          const double ms = ms_since(s0);
          sweep_ms += ms;
          if (kind == Pass::kTimed)
            st.ms.push_back(ms);
          else
            std::fprintf(stderr, "# verify %-16s %-16s m=%-4d %10.3f ms\n",
                         in.name.c_str(), c.engine.c_str(), c.m, ms);
        }
        std::int64_t lmax = 0;
        {
          Layer l("core.max_load");
          lmax = p.max_load(view);
        }
        Layer l("bench.check");
        out.count(kind == Pass::kTimed ? "solve" : "verify", 1, 0);
        const std::uint64_t h = hash_rects(p);
        const std::string label =
            in.name + " " + c.engine + " m=" + std::to_string(c.m);
        if (kind != Pass::kTimed) {
          const std::string why = in.ref.check(p.rects, c.m, lmax);
          if (!why.empty()) out.error(label + ": " + why);
          st.lmax = lmax;
          st.hash = h;
        } else if (h != st.hash || lmax != st.lmax) {
          // A different partition than the verified one: check it in full
          // (and flag the nondeterminism).
          const std::string why = in.ref.check(p.rects, c.m, lmax);
          out.error(label + ": partition differs from the verification "
                    "pass" + (why.empty() ? std::string() : ": " + why));
        }
      }
    }
    if (kind != Pass::kExtra) substrate_mib = bytes / (1024.0 * 1024.0);
    return std::pair<double, double>(ingest_ms, sweep_ms);
  };

  // -- first pass (untimed; also the warm-up of page cache and pool).
  (void)pass(Pass::kFirst);

  // -- timed passes, whole passes until the run time is spent.
  if (opt.trace) {
    Ledger::reset();
    Ledger::enable(true);
    obs::trace_reset();
    obs::trace_enable(true);
  }
  std::vector<double> ingest_ms, sweep_ms;
  std::map<std::string, std::vector<double>> counter_samples;
  const auto t_start = Clock::now();
  int passes = 0;
  do {
    const obs::CounterSnapshot before = obs::counters_snapshot();
    replay_work = obs::CounterSnapshot{};
    const auto [ing, swp] = pass(Pass::kTimed);
    const obs::CounterSnapshot work =
        obs::counters_snapshot().delta_since(before);
    for (const auto& [name, c] : layer_counters()) {
      const bool sum = c != obs::Counter::kPoolQueueHighWatermark;
      counter_samples[name].push_back(
          static_cast<double>(work[c] - (sum ? replay_work[c] : 0)));
    }
    ingest_ms.push_back(ing);
    sweep_ms.push_back(swp);
    ++passes;
    // The chrome trace keeps the first two passes; the ledger keeps all.
    if (opt.trace && passes == 2) obs::trace_enable(false);
  } while (ms_since(t_start) < opt.seconds * 1000.0);
  obs::trace_enable(false);
  Ledger::enable(false);
  // The high-water mark of the first and timed passes (and of the checker's
  // copies, loaded before them); the extra pass below runs other engines.
  const double rss_mib = peak_rss_mib();

  // -- verification-only configurations, then the class-inclusion orderings.
  (void)pass(Pass::kExtra);
  std::map<std::string, std::map<std::string, std::int64_t>> by_site;
  for (std::size_t i = 0; i < spec.configs.size(); ++i) {
    const LibConfig& c = spec.configs[i];
    by_site[std::to_string(c.instance) + "|" + std::to_string(c.m)]
           [c.engine] = state[i].lmax;
  }
  for (const auto& [site, lmax] : by_site) {
    const int inst = std::stoi(site.substr(0, site.find('|')));
    const int m = std::stoi(site.substr(site.find('|') + 1));
    for (const std::string& bad : check_orderings(lmax, m))
      out.error(spec.instances[static_cast<std::size_t>(inst)].name +
                ": ordering violated: " + bad);
  }

  std::vector<double> config_medians, quality;
  std::map<std::string, double> family_ms;
  for (std::size_t i = 0; i < spec.configs.size(); ++i) {
    const LibConfig& c = spec.configs[i];
    if (!c.timed) continue;
    const ConfigState& st = state[i];
    const double med = median(st.ms);
    std::fprintf(stderr, "# timed  %-16s %-16s m=%-4d %10.3f ms (median of %zu)\n",
                 spec.instances[static_cast<std::size_t>(c.instance)].name.c_str(),
                 c.engine.c_str(), c.m, med, st.ms.size());
    config_medians.push_back(med);
    family_ms[st.layer] += med;
    const Reference& ref = spec.instances[static_cast<std::size_t>(c.instance)].ref;
    quality.push_back(static_cast<double>(st.lmax) /
                      static_cast<double>(ref.lower_bound(c.m)));
  }

  std::fprintf(stderr,
               "# %s: %d timed passes, %zu timed configurations, %zu "
               "verification-only, threads %d, substrate arrays %.2f MiB "
               "(host %s)\n",
               opt.workload.c_str(), passes, config_medians.size(),
               spec.configs.size() - config_medians.size(), opt.threads,
               substrate_mib, last_level_cache().c_str());

  // End-to-end metrics (also computed in the traced run, where they are
  // printed to stderr so the tracing overhead can be read off).
  std::map<std::string, double> e2e = {
      {"setup_s", median(setup_ms) / 1000.0},
      {"ingest_s", median(ingest_ms) / 1000.0},
      {"solve_ms_gmean", gmean(config_medians)},
      {"sweep_s", median(sweep_ms) / 1000.0},
      {"lmax_over_lb", gmean(quality)},
      {"peak_rss_mib", rss_mib},
  };
  if (!opt.trace) {
    out.values = e2e;
    return out;
  }
  for (const auto& [k, v] : e2e)
    std::fprintf(stderr, "# traced end-to-end %s %.6g\n", k.c_str(), v);

  print_layer_table(opt.workload, "op.pass");
  const auto ledger = Ledger::snapshot();
  const auto per_pass = [&](const char* layer) {
    const auto it = ledger.find(layer);
    return it == ledger.end() ? 0.0 : it->second.total_ms / passes;
  };
  for (const char* layer :
       {"io.load_dense", "io.load_coo", "prefix.gamma_build",
        "prefix.gamma_transpose", "prefix.csr_build", "prefix.csc_mirror",
        "prefix.stripe_projection", "core.max_load"})
    out.set(std::string(layer) + "_ms", per_pass(layer));
  for (const char* fam : {"rectilinear.solve", "jagged.heur_solve",
                          "jagged.exact_solve", "hier.solve",
                          "recursive.solve"})
    out.set(std::string(fam) + "_ms", family_ms[fam]);
  out.set("prefix.substrate_mib", substrate_mib);
  for (const auto& [name, samples] : counter_samples)
    out.set(name, median(samples));
  const std::string trace_path = dir + "/trace.json";
  if (!obs::trace_write_json(trace_path))
    out.error("cannot write the chrome trace " + trace_path);
  else
    std::fprintf(stderr, "# chrome trace (first two passes): %s\n",
                 trace_path.c_str());
  return out;
}

}  // namespace perfbench
