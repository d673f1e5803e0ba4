// Exactness tests for JAG-PQ-OPT and JAG-M-OPT: the parametric engines must
// agree with the paper's dynamic programs, dominate the heuristics, and
// respect the solution-class containments.  JAG-M-OPT's bracketed stripe-end
// search is held to the plain upward gallop it replaced, on every tier of
// the CSR probe cache, and its dense partitions are pinned by hash.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/partitioner.hpp"
#include "jagged/jag_detail.hpp"
#include "jagged/jagged.hpp"
#include "jagged/stripe_opt_cache.hpp"
#include "obs/counters.hpp"
#include "obs/run_context.hpp"
#include "oned/probe.hpp"
#include "picmag/picmag.hpp"
#include "prefix/sparse_load.hpp"
#include "testing_util.hpp"
#include "util/parallel.hpp"
#include "workloads/synthetic.hpp"

namespace rectpart {
namespace {

using testing::random_matrix;

JaggedOptions hor() {
  JaggedOptions o;
  o.orientation = Orientation::kHorizontal;
  return o;
}

TEST(JagPqOpt, ValidAndDominatesHeuristic) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const LoadMatrix a = random_matrix(18, 22, 0, 9, seed);
    const PrefixSum2D ps(a);
    for (const int m : {4, 6, 9, 12}) {
      const Partition opt = jag_pq_opt(ps, m, hor());
      const Partition heur = jag_pq_heur(ps, m, hor());
      ASSERT_TRUE(validate(opt, 18, 22)) << "seed=" << seed << " m=" << m;
      ASSERT_EQ(opt.m(), m);
      EXPECT_LE(opt.max_load(ps), heur.max_load(ps));
      EXPECT_GE(opt.max_load(ps), lower_bound_lmax(ps, m));
    }
  }
}

TEST(JagPqOpt, MatchesPaperDpOnSmallInstances) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const LoadMatrix a = random_matrix(10, 12, 0, 15, seed + 100);
    const PrefixSum2D ps(a);
    for (const int m : {4, 6, 9}) {
      const std::int64_t fast = jag_pq_opt(ps, m, hor()).max_load(ps);
      const std::int64_t dp = jag_pq_opt_dp(ps, m, hor()).max_load(ps);
      ASSERT_EQ(fast, dp) << "seed=" << seed << " m=" << m;
    }
  }
}

TEST(JagPqOpt, BestOrientationNeverWorse) {
  const LoadMatrix a = gen_peak(20, 20, 3);
  const PrefixSum2D ps(a);
  JaggedOptions best;
  best.orientation = Orientation::kBest;
  JaggedOptions ver;
  ver.orientation = Orientation::kVertical;
  const auto lb = jag_pq_opt(ps, 9, best).max_load(ps);
  EXPECT_LE(lb, jag_pq_opt(ps, 9, hor()).max_load(ps));
  EXPECT_LE(lb, jag_pq_opt(ps, 9, ver).max_load(ps));
}

TEST(JagMOpt, ValidAndDominatesEverythingJagged) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const LoadMatrix a = random_matrix(15, 17, 0, 9, seed + 200);
    const PrefixSum2D ps(a);
    for (const int m : {2, 4, 6, 9}) {
      const Partition mopt = jag_m_opt(ps, m, hor());
      ASSERT_TRUE(validate(mopt, 15, 17)) << "seed=" << seed << " m=" << m;
      ASSERT_EQ(mopt.m(), m);
      const std::int64_t l = mopt.max_load(ps);
      // m-way jagged contains P x Q-way jagged as a subclass.
      EXPECT_LE(l, jag_pq_opt(ps, m, hor()).max_load(ps));
      EXPECT_LE(l, jag_m_heur(ps, m, hor()).max_load(ps));
      EXPECT_GE(l, lower_bound_lmax(ps, m));
    }
  }
}

TEST(JagMOpt, MatchesPaperDpOnSmallInstances) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const LoadMatrix a = random_matrix(8, 9, 0, 12, seed + 300);
    const PrefixSum2D ps(a);
    for (const int m : {1, 2, 3, 5, 7}) {
      const std::int64_t fast = jag_m_opt(ps, m, hor()).max_load(ps);
      const std::int64_t dp = jag_m_opt_dp(ps, m, hor()).max_load(ps);
      ASSERT_EQ(fast, dp) << "seed=" << seed << " m=" << m;
    }
  }
}

TEST(JagMOpt, BottleneckShortcutMatchesFullRun) {
  const LoadMatrix a = gen_multipeak(16, 16, 3, 4);
  const PrefixSum2D ps(a);
  for (const int m : {3, 5, 8}) {
    EXPECT_EQ(jag_m_opt_bottleneck(ps, m, Orientation::kHorizontal),
              jag_m_opt(ps, m, hor()).max_load(ps));
  }
}

TEST(JagMOpt, MonotoneNonIncreasingInM) {
  const LoadMatrix a = random_matrix(12, 12, 1, 20, 5);
  const PrefixSum2D ps(a);
  std::int64_t prev = std::numeric_limits<std::int64_t>::max();
  for (int m = 1; m <= 10; ++m) {
    const std::int64_t l =
        jag_m_opt_bottleneck(ps, m, Orientation::kHorizontal);
    EXPECT_LE(l, prev) << "m=" << m;
    prev = l;
  }
}

TEST(JagMOpt, SingleProcessorTakesTotal) {
  const LoadMatrix a = random_matrix(6, 6, 1, 9, 6);
  const PrefixSum2D ps(a);
  EXPECT_EQ(jag_m_opt(ps, 1, hor()).max_load(ps), ps.total());
}

TEST(JagMOpt, ManyProcessorsReachMaxCell) {
  const LoadMatrix a = random_matrix(5, 5, 1, 9, 7);
  const PrefixSum2D ps(a);
  // With one processor per cell the bottleneck is the largest cell.
  EXPECT_EQ(jag_m_opt_bottleneck(ps, 25, Orientation::kHorizontal),
            ps.max_cell());
}

TEST(JagMOpt, SparseMatrixWithZeroRows) {
  LoadMatrix a(12, 12, 0);
  for (int y = 0; y < 12; ++y) a(5, y) = 10;
  const PrefixSum2D ps(a);
  const Partition p = jag_m_opt(ps, 4, hor());
  EXPECT_TRUE(validate(p, 12, 12));
  EXPECT_EQ(p.max_load(ps), 30);  // 120 split across 4 procs
}

TEST(JagMOpt, VerticalOrientationValid) {
  const LoadMatrix a = random_matrix(9, 14, 0, 9, 8);
  const PrefixSum2D ps(a);
  JaggedOptions ver;
  ver.orientation = Orientation::kVertical;
  const Partition p = jag_m_opt(ps, 6, ver);
  EXPECT_TRUE(validate(p, 9, 14));
}

TEST(StripeOptCacheTest, MemoKeysDoNotAlias) {
  // The memo key used to pack (a << 40) | (b << 16) | x into one word, so
  // opt(0, 1, 65537) and opt(0, 2, 1) hashed to the same slot: whichever was
  // asked first poisoned the other with its bottleneck.  The keys must stay
  // distinct for any x.
  const LoadMatrix a = random_matrix(4, 6, 1, 9, 17);
  const PrefixSum2D ps(a);
  StripeOptCache cache(ps);
  const std::int64_t row0_max = cache.opt(0, 1, 65537);  // old alias partner
  const std::int64_t two_rows_total = cache.opt(0, 2, 1);
  EXPECT_EQ(two_rows_total, ps.load(0, 2, 0, ps.cols()));
  // Strictly positive matrix: one cell of row 0 can never carry two rows.
  EXPECT_LT(row0_max, two_rows_total);
  // A fresh cache (no aliasing candidate inserted first) must agree.
  StripeOptCache fresh(ps);
  EXPECT_EQ(fresh.opt(0, 2, 1), two_rows_total);
}

TEST(JagPqOptDp, DivisibilityErrorIsActionable) {
  const LoadMatrix a = random_matrix(8, 8, 1, 9, 42);
  const PrefixSum2D ps(a);
  JaggedOptions o = hor();
  o.stripes = 2;  // 2 does not divide m = 7
  try {
    (void)jag_pq_opt_dp(ps, 7, o);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("P = 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("m = 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("-hor"), std::string::npos) << msg;
  }
}

TEST(JagOpt, OptBeatsOrMatchesHeurOnPaperFamilies) {
  // Smoke the full family set at small scale.
  const int n = 24;
  for (const char* family : {"uniform", "diagonal", "peak", "multipeak"}) {
    const LoadMatrix a = make_synthetic(family, n, n, 11);
    const PrefixSum2D ps(a);
    for (const int m : {4, 9}) {
      const std::int64_t mo = jag_m_opt(ps, m, hor()).max_load(ps);
      const std::int64_t mh = jag_m_heur(ps, m, hor()).max_load(ps);
      const std::int64_t po = jag_pq_opt(ps, m, hor()).max_load(ps);
      const std::int64_t ph = jag_pq_heur(ps, m, hor()).max_load(ps);
      EXPECT_LE(mo, mh) << family;
      EXPECT_LE(po, ph) << family;
      EXPECT_LE(mo, po) << family;
    }
  }
}

// ------------------------------------------- JAG-M-OPT's stripe-end search

/// Minimum column parts of stripe [a, b) at bottleneck B (nullopt past
/// `cap`), asked straight of the substrate's interval queries: no probe
/// cache, no Γ ladder.
std::optional<int> plain_parts(const LoadSubstrate& ls, int a, int b,
                               std::int64_t B, int cap) {
  if (ls.is_dense())
    return oned::min_parts_within(StripeColsOracle(ls.dense(), a, b), 0,
                                  ls.cols(), B, cap);
  return oned::min_parts_within(SparseStripeOracle(*ls.sparse(), a, b), 0,
                                ls.cols(), B, cap);
}

/// JAG-M-OPT's suffix DP as it was before the bracketed search: every
/// stripe end E(s, c) is found by galloping upward from s + 1, with no
/// bound carried between states.  The engine must pick the same ends.
struct GallopMWayDp {
  std::vector<int> choice_e;
  std::vector<int> choice_c;

  bool run(const LoadSubstrate& ls, int m, std::int64_t B) {
    const int n1 = ls.rows();
    const int inf = m + 1;
    std::vector<int> f(n1 + 1, inf);
    std::vector<int> next_drop(n1 + 2, n1 + 1);
    choice_e.assign(n1 + 1, n1);
    choice_c.assign(n1 + 1, 0);
    f[n1] = 0;
    const auto max_end = [&](int s, int cap) {
      int good = s + 1;
      int step = 1;
      int bad = n1 + 1;
      while (good + step <= n1) {
        if (!plain_parts(ls, s, good + step, B, cap)) {
          bad = good + step;
          break;
        }
        good += step;
        step *= 2;
      }
      while (good + 1 < bad) {
        const int mid = good + (bad - good) / 2;
        (plain_parts(ls, s, mid, B, cap) ? good : bad) = mid;
      }
      return good;
    };
    for (int s = n1 - 1; s >= 0; --s) {
      int best = inf, best_e = n1, best_c = 0;
      std::optional<int> c = plain_parts(ls, s, s + 1, B, m);
      while (c && *c < best) {
        const int e = max_end(s, *c);
        const int cand = f[e] >= inf ? inf : std::min(inf, *c + f[e]);
        if (cand < best) {
          best = cand;
          best_e = e;
          best_c = *c;
        }
        if (e >= n1 || next_drop[e] > n1) break;
        c = plain_parts(ls, s, next_drop[e], B, m);
      }
      f[s] = best;
      choice_e[s] = best_e;
      choice_c[s] = best_c;
      int ed = s + 1;
      while (ed <= n1 && f[ed] >= f[s]) ed = next_drop[ed];
      next_drop[s] = ed;
    }
    return f[0] <= m;
  }

  /// The partition the engine assembles from these choices.
  [[nodiscard]] Partition partition(const LoadSubstrate& ls, int m) const {
    oned::Cuts rows;
    rows.pos.push_back(0);
    std::vector<oned::Cuts> cols;
    for (int s = 0; s < ls.rows(); s = choice_e[s]) {
      rows.pos.push_back(choice_e[s]);
      cols.push_back(
          jag_detail::solve_stripe(ls, s, choice_e[s], choice_c[s]));
    }
    return jag_detail::assemble_jagged(rows, cols, m);
  }
};

/// The engine's optimum must be the gallop DP's (feasible at B, infeasible
/// at B - 1) and its partition the one the gallop DP's choices assemble.
void expect_matches_gallop(const LoadSubstrate& ls, int m,
                           const std::string& label) {
  const Partition got = jag_m_opt(ls, m, hor());
  const std::int64_t B = got.max_load(ls);
  GallopMWayDp ref;
  ASSERT_TRUE(ref.run(ls, m, B)) << label;
  EXPECT_FALSE(GallopMWayDp().run(ls, m, B - 1)) << label;
  EXPECT_EQ(got.rects, ref.partition(ls, m).rects) << label;
}

TEST(JagMOptSearch, MatchesUnbracketedGallopOnDense) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const PrefixSum2D ps(random_matrix(40, 33, 0, 50, seed + 500));
    for (const int m : {3, 8, 17})
      expect_matches_gallop(ps, m, "random seed=" + std::to_string(seed) +
                                       " m=" + std::to_string(m));
  }
  for (const char* family : {"peak", "multipeak", "diagonal"}) {
    const PrefixSum2D ps(make_synthetic(family, 72, 64, 9));
    for (const int m : {16, 36})
      expect_matches_gallop(ps, m, std::string(family) +
                                       " m=" + std::to_string(m));
  }
}

TEST(JagMOptSearch, MatchesUnbracketedGallopOnEveryProbeCacheTier) {
  // The CSR probe cache picks its tier by shape alone: the Γ ladder up to
  // 2^23 (rows+1) x (cols+1) cells, the scatter cache up to 2^16 columns,
  // the tiled oracle beyond.  One shape per tier, one power-law and one
  // mesh instance each.  The two wide tiers stop at m = 4: past the ladder
  // every stripe probe pays per column or per fringe row, and this suite
  // also runs under ThreadSanitizer.
  constexpr std::int64_t kLadderMaxCells = std::int64_t{1} << 23;
  constexpr int kScatterMaxCols = 1 << 16;
  enum Tier { kLadder, kScatter, kTiled };
  const struct {
    Tier tier;
    const char* name;
    int n1, n2;
    std::int64_t nnz;
    int max_m;
  } kTiers[] = {
      {kLadder, "ladder", 96, 80, 1500, 9},
      {kScatter, "scatter", 128, 1 << 16, 600, 4},
      {kTiled, "tiled", 64, 1 << 17, 600, 4},
  };
  for (const auto& t : kTiers) {
    const std::int64_t cells = (std::int64_t{t.n1} + 1) * (t.n2 + 1);
    ASSERT_EQ(t.tier == kLadder, cells <= kLadderMaxCells) << t.name;
    ASSERT_EQ(t.tier == kTiled, cells > kLadderMaxCells &&
                                    t.n2 > kScatterMaxCols)
        << t.name;
    for (const std::uint64_t seed : {1, 2}) {
      const CooInstance coo =
          seed == 1 ? gen_powerlaw_coo(t.n1, t.n2, t.nnz, seed)
                    : gen_mesh_coo(t.n1, t.n2, t.nnz, seed);
      const SparseLoadCSR csr =
          SparseLoadCSR::from_coo(coo.n1, coo.n2, coo.entries);
      for (const int m : {4, 9}) {
        if (m > t.max_m) continue;
        const obs::CounterSnapshot before = obs::counters_snapshot();
        expect_matches_gallop(csr, m, std::string(t.name) + " seed=" +
                                          std::to_string(seed) +
                                          " m=" + std::to_string(m));
#if RECTPART_OBS_ENABLED
        // Only the scatter tier rescans a scatter cache.
        const obs::CounterSnapshot work =
            obs::counters_snapshot().delta_since(before);
        EXPECT_EQ(t.tier == kScatter,
                  work[obs::Counter::kScatterColsRescanned] > 0)
            << t.name;
#else
        (void)before;
#endif
      }
    }
  }
}

/// FNV-1a over the rectangle coordinates, in output order.
std::uint64_t partition_hash(const Partition& p, std::uint64_t h) {
  for (const Rect& r : p.rects) {
    for (const std::int64_t v : {r.x0, r.x1, r.y0, r.y1}) {
      for (int b = 0; b < 8; ++b) {
        h ^= (static_cast<std::uint64_t>(v) >> (8 * b)) & 0xffULL;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

TEST(JagMOptSearch, DensePartitionsArePinned) {
  // Recorded before the bracketed search and the shared Γ ladder: both
  // change only how the DP finds stripe ends, never which ends it finds.
  PicMagConfig cfg;
  cfg.n1 = 128;
  cfg.n2 = 128;
  cfg.particles = 20000;
  PicMagSimulator sim(cfg);
  const PrefixSum2D picmag(sim.snapshot_at(2000));
  const PrefixSum2D peak(gen_peak(160, 160, 5));
  const struct {
    Orientation orient;
    std::uint64_t hash;
  } kGolden[] = {
      {Orientation::kBest, 0x07a252e9f0d657d0ULL},
      {Orientation::kHorizontal, 0x1dc538b56719e49bULL},
      {Orientation::kVertical, 0x31a84acb0a78cc24ULL},
  };
  for (const auto& [orient, expected] : kGolden) {
    JaggedOptions opt;
    opt.orientation = orient;
    std::uint64_t h = 1469598103934665603ULL;
    for (const PrefixSum2D* ps : {&picmag, &peak})
      for (const int m : {16, 64}) h = partition_hash(jag_m_opt(*ps, m, opt), h);
    EXPECT_EQ(h, expected) << orientation_suffix(orient) << ": actual 0x"
                           << std::hex << h;
  }
}

TEST(JagMOptSearch, SharedLadderIsThreadCountInvariant) {
  // Every bisection lane reads the one Γ ladder its solve built; the
  // partitions must not depend on how many lanes there are.
  const CooInstance coo = gen_mesh_coo(300, 260, 9000, 3);
  const SparseLoadCSR csr = SparseLoadCSR::from_coo(coo.n1, coo.n2, coo.entries);
  std::vector<Partition> by_width[2];
  for (const int threads : {1, 4}) {
    set_threads(threads);
    for (const int m : {9, 16}) {
      by_width[threads == 4].push_back(jag_m_opt(csr, m));
      by_width[threads == 4].push_back(jag_pq_opt(csr, m));
    }
  }
  set_threads(1);
  ASSERT_EQ(by_width[0].size(), by_width[1].size());
  for (std::size_t i = 0; i < by_width[0].size(); ++i)
    EXPECT_EQ(by_width[0][i].rects, by_width[1][i].rects) << "case " << i;
}

TEST(JagMOptSearch, LadderTierSolvesHonourAOneMillisecondDeadline) {
  // A CSR instance at the Γ ladder's 2^23-cell envelope: building the
  // ladder alone takes far longer than the deadline, so the engines must
  // poll while they build it, not only once the DP or sweep is under way.
  register_builtin_partitioners();
  const CooInstance coo = gen_mesh_coo(2047, 4095, 1 << 17, 4);
  const SparseLoadCSR csr = SparseLoadCSR::from_coo(coo.n1, coo.n2, coo.entries);
  constexpr auto kDeadline = std::chrono::milliseconds(1);
  // Slack for the last poll interval on a loaded host: a few ms here, where
  // an unpolled ladder build overshoots by ~55 ms.  Under a sanitizer the
  // first touch of each ladder page alone costs ~15 ms per 64 rows.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr auto kEpsilon = std::chrono::milliseconds(400);
#else
  constexpr auto kEpsilon = std::chrono::milliseconds(40);
#endif
  for (const char* name : {"jag-m-opt", "jag-pq-opt"}) {
    RunContext ctx = RunContext::with_deadline(kDeadline);
    const auto start = RunContext::Clock::now();
    EXPECT_THROW((void)make_partitioner(name)->run(csr, 16, ctx),
                 DeadlineExceeded)
        << name;
    EXPECT_LT(RunContext::Clock::now() - start, kDeadline + kEpsilon)
        << name;
  }
}

}  // namespace
}  // namespace rectpart
