// Output checker of the benchmark, written apart from the program: it uses
// neither core::validate nor any load substrate (PrefixSum2D, SparseLoadCSR,
// tiles) — only the raw cells or COO entries the benchmark itself generated.
//
// Per answer it checks:
//   * exactly m rectangles;
//   * pairwise disjoint and covering the whole n1 x n2 grid (painted for a
//     dense grid; for a sparse grid, in-bounds + pairwise disjoint + areas
//     summing to n1*n2, which together imply an exact cover);
//   * Lmax recomputed from the raw cells / entries equals the reported Lmax
//     and is >= max(ceil(total/m), max cell).
// Per (instance, m) it checks the orderings that class inclusion forces
// (see check_orderings).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/rect.hpp"

namespace perfbench {

using rectpart::Rect;

/// One instance's raw loads, kept in the checker's own layout.
class Reference {
 public:
  /// Dense grid, row-major n1 x n2 cells.
  static Reference dense(int n1, int n2, std::vector<std::int64_t> cells);

  /// Sparse grid from raw (row, col, value) triples; duplicates add up.
  struct Triple {
    std::int32_t r, c;
    std::int64_t v;
  };
  static Reference sparse(int n1, int n2, std::vector<Triple> triples);

  [[nodiscard]] bool is_dense() const { return dense_; }

  /// Writes the checker's copy to `path` in its own raw format, and reads
  /// it back: set-up runs in a child process, so the measured process only
  /// ever holds the finished copies.  Both throw std::runtime_error on an
  /// I/O failure or a malformed file.
  void save(const std::string& path) const;
  [[nodiscard]] static Reference load(const std::string& path);

  /// max(ceil(total / m), max cell).
  [[nodiscard]] std::int64_t lower_bound(int m) const;

  /// Checks one answer; returns "" when it passes, else the reason.
  [[nodiscard]] std::string check(const std::vector<Rect>& rects, int m,
                                  std::int64_t reported_lmax) const;

 private:
  [[nodiscard]] std::string check_dense(const std::vector<Rect>& rects,
                                        std::int64_t* lmax) const;
  [[nodiscard]] std::string check_sparse(const std::vector<Rect>& rects,
                                         std::int64_t* lmax) const;
  [[nodiscard]] std::int64_t sparse_load(const Rect& r) const;

  int n1_ = 0, n2_ = 0;
  bool dense_ = true;
  std::int64_t total_ = 0, max_cell_ = 0;
  std::vector<std::int64_t> cells_;     ///< dense: row-major cells
  std::vector<std::int64_t> row_off_;   ///< sparse: n1+1 offsets
  std::vector<std::int32_t> col_;       ///< sparse: sorted columns per row
  std::vector<std::int64_t> vsum_;      ///< sparse: running value sum, +1
};

/// Where the checker's copy of the instance in file `input` is kept.
[[nodiscard]] inline std::string reference_path(const std::string& input) {
  return input + ".ref";
}

/// The orderings class inclusion forces on one (instance, m), given the
/// Lmax of every engine that ran there (missing engines skip their rules):
///   jag-pq-opt <= jag-pq-heur, jag-m-opt <= jag-m-heur,
///   jag-m-opt <= jag-pq-opt (square m), jag-m-heur-auto <= jag-m-heur,
///   X = min(X-hor, X-ver) for every jagged -best engine X.
/// Returns one message per violated rule.
[[nodiscard]] std::vector<std::string> check_orderings(
    const std::map<std::string, std::int64_t>& lmax, int m);

/// Feeds the checker broken partitions (gap, overlap, wrong m, wrong Lmax,
/// out of bounds) and broken orderings on small dense and sparse grids and
/// requires each to be rejected, and the intact ones accepted.  Returns the
/// failures (empty when the checker works); `cases` receives the case count.
[[nodiscard]] std::vector<std::string> checker_selftest(int* cases);

}  // namespace perfbench
