#include "checker.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <memory>
#include <random>
#include <stdexcept>

namespace perfbench {

namespace {

std::string str(const Rect& r) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "[%d,%d)x[%d,%d)", r.x0, r.x1, r.y0, r.y1);
  return buf;
}

}  // namespace

Reference Reference::dense(int n1, int n2, std::vector<std::int64_t> cells) {
  Reference ref;
  ref.n1_ = n1;
  ref.n2_ = n2;
  ref.dense_ = true;
  for (const std::int64_t c : cells) {
    ref.total_ += c;
    ref.max_cell_ = std::max(ref.max_cell_, c);
  }
  ref.cells_ = std::move(cells);
  return ref;
}

Reference Reference::sparse(int n1, int n2, std::vector<Triple> triples) {
  Reference ref;
  ref.n1_ = n1;
  ref.n2_ = n2;
  ref.dense_ = false;
  std::sort(triples.begin(), triples.end(),
            [](const Triple& a, const Triple& b) {
              return a.r != b.r ? a.r < b.r : a.c < b.c;
            });
  ref.row_off_.assign(static_cast<std::size_t>(n1) + 1, 0);
  ref.vsum_.push_back(0);
  for (std::size_t i = 0; i < triples.size();) {
    const Triple t = triples[i];
    std::int64_t v = 0;
    for (; i < triples.size() && triples[i].r == t.r && triples[i].c == t.c;
         ++i)
      v += triples[i].v;
    ref.col_.push_back(t.c);
    ref.vsum_.push_back(ref.vsum_.back() + v);
    ref.row_off_[static_cast<std::size_t>(t.r) + 1] += 1;
    ref.total_ += v;
    ref.max_cell_ = std::max(ref.max_cell_, v);
  }
  std::partial_sum(ref.row_off_.begin(), ref.row_off_.end(),
                   ref.row_off_.begin());
  return ref;
}

namespace {

constexpr char kRefMagic[4] = {'P', 'B', 'R', '1'};

using File = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

File open_file(const std::string& path, const char* mode) {
  File f(std::fopen(path.c_str(), mode), &std::fclose);
  if (!f) throw std::runtime_error("cannot open " + path);
  return f;
}

void put(std::FILE* f, const void* p, std::size_t bytes,
         const std::string& path) {
  if (bytes != 0 && std::fwrite(p, 1, bytes, f) != bytes)
    throw std::runtime_error("short write to " + path);
}

void get(std::FILE* f, void* p, std::size_t bytes, const std::string& path) {
  if (bytes != 0 && std::fread(p, 1, bytes, f) != bytes)
    throw std::runtime_error("truncated reference file " + path);
}

template <typename T>
void put_vec(std::FILE* f, const std::vector<T>& v, const std::string& path) {
  const auto n = static_cast<std::uint64_t>(v.size());
  put(f, &n, sizeof n, path);
  put(f, v.data(), v.size() * sizeof(T), path);
}

template <typename T>
std::vector<T> get_vec(std::FILE* f, std::uint64_t limit,
                       const std::string& path) {
  std::uint64_t n = 0;
  get(f, &n, sizeof n, path);
  if (n > limit) throw std::runtime_error("malformed reference file " + path);
  std::vector<T> v(static_cast<std::size_t>(n));
  get(f, v.data(), v.size() * sizeof(T), path);
  return v;
}

}  // namespace

void Reference::save(const std::string& path) const {
  const File f = open_file(path, "wb");
  const std::int32_t head[3] = {n1_, n2_, dense_ ? 1 : 0};
  const std::int64_t sums[2] = {total_, max_cell_};
  put(f.get(), kRefMagic, sizeof kRefMagic, path);
  put(f.get(), head, sizeof head, path);
  put(f.get(), sums, sizeof sums, path);
  put_vec(f.get(), cells_, path);
  put_vec(f.get(), row_off_, path);
  put_vec(f.get(), col_, path);
  put_vec(f.get(), vsum_, path);
  if (std::fflush(f.get()) != 0)
    throw std::runtime_error("short write to " + path);
}

Reference Reference::load(const std::string& path) {
  const File f = open_file(path, "rb");
  char magic[4] = {};
  std::int32_t head[3] = {};
  std::int64_t sums[2] = {};
  get(f.get(), magic, sizeof magic, path);
  if (!std::equal(magic, magic + 4, kRefMagic))
    throw std::runtime_error("not a reference file: " + path);
  get(f.get(), head, sizeof head, path);
  get(f.get(), sums, sizeof sums, path);
  if (head[0] < 0 || head[1] < 0)
    throw std::runtime_error("malformed reference file " + path);
  Reference ref;
  ref.n1_ = head[0];
  ref.n2_ = head[1];
  ref.dense_ = head[2] != 0;
  ref.total_ = sums[0];
  ref.max_cell_ = sums[1];
  const auto cells = static_cast<std::uint64_t>(ref.n1_) *
                     static_cast<std::uint64_t>(ref.n2_);
  constexpr std::uint64_t kMaxEntries = std::uint64_t{1} << 32;
  ref.cells_ = get_vec<std::int64_t>(f.get(), cells, path);
  ref.row_off_ = get_vec<std::int64_t>(
      f.get(), static_cast<std::uint64_t>(ref.n1_) + 1, path);
  ref.col_ = get_vec<std::int32_t>(f.get(), kMaxEntries, path);
  ref.vsum_ = get_vec<std::int64_t>(f.get(), kMaxEntries + 1, path);
  const bool consistent =
      ref.dense_ ? ref.cells_.size() == cells
                 : ref.row_off_.size() == static_cast<std::size_t>(ref.n1_) + 1 &&
                       ref.vsum_.size() == ref.col_.size() + 1 &&
                       static_cast<std::size_t>(ref.row_off_.back()) ==
                           ref.col_.size();
  if (!consistent) throw std::runtime_error("malformed reference file " + path);
  return ref;
}

std::int64_t Reference::lower_bound(int m) const {
  const std::int64_t avg = (total_ + m - 1) / m;
  return std::max(avg, max_cell_);
}

std::string Reference::check(const std::vector<Rect>& rects, int m,
                             std::int64_t reported_lmax) const {
  if (static_cast<int>(rects.size()) != m)
    return "has " + std::to_string(rects.size()) + " rectangles, want m=" +
           std::to_string(m);
  for (const Rect& r : rects) {
    const bool empty = r.x0 >= r.x1 || r.y0 >= r.y1;
    if (!empty && (r.x0 < 0 || r.y0 < 0 || r.x1 > n1_ || r.y1 > n2_))
      return "rectangle " + str(r) + " leaves the " +
             std::to_string(n1_) + "x" + std::to_string(n2_) + " grid";
  }
  std::int64_t lmax = 0;
  std::string why = dense_ ? check_dense(rects, &lmax)
                           : check_sparse(rects, &lmax);
  if (!why.empty()) return why;
  if (lmax != reported_lmax)
    return "reported Lmax " + std::to_string(reported_lmax) +
           " but the cells give " + std::to_string(lmax);
  if (lmax < lower_bound(m))
    return "Lmax " + std::to_string(lmax) + " is below the lower bound " +
           std::to_string(lower_bound(m));
  return "";
}

std::string Reference::check_dense(const std::vector<Rect>& rects,
                                   std::int64_t* lmax) const {
  // Paint every cell with its owner; a second paint is an overlap, an
  // unpainted cell a gap.  Loads are summed from the raw cells while
  // painting.
  std::vector<std::int32_t> owner(cells_.size(), -1);
  *lmax = 0;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const Rect& r = rects[i];
    if (r.x0 >= r.x1 || r.y0 >= r.y1) continue;
    std::int64_t load = 0;
    for (int x = r.x0; x < r.x1; ++x) {
      const std::size_t row = static_cast<std::size_t>(x) * n2_;
      for (int y = r.y0; y < r.y1; ++y) {
        std::int32_t& o = owner[row + y];
        if (o >= 0)
          return "rectangles " + std::to_string(o) + " and " +
                 std::to_string(i) + " overlap at cell (" + std::to_string(x) +
                 "," + std::to_string(y) + ")";
        o = static_cast<std::int32_t>(i);
        load += cells_[row + y];
      }
    }
    *lmax = std::max(*lmax, load);
  }
  const auto gap = std::find(owner.begin(), owner.end(), -1);
  if (gap != owner.end()) {
    const auto at = static_cast<std::size_t>(gap - owner.begin());
    return "cell (" + std::to_string(at / n2_) + "," +
           std::to_string(at % n2_) + ") is not covered";
  }
  return "";
}

std::int64_t Reference::sparse_load(const Rect& r) const {
  std::int64_t load = 0;
  for (int x = r.x0; x < r.x1; ++x) {
    const auto b = col_.begin() + row_off_[static_cast<std::size_t>(x)];
    const auto e = col_.begin() + row_off_[static_cast<std::size_t>(x) + 1];
    if (b == e) continue;
    const auto lo = std::lower_bound(b, e, r.y0);
    const auto hi = std::lower_bound(lo, e, r.y1);
    load += vsum_[static_cast<std::size_t>(hi - col_.begin())] -
            vsum_[static_cast<std::size_t>(lo - col_.begin())];
  }
  return load;
}

std::string Reference::check_sparse(const std::vector<Rect>& rects,
                                    std::int64_t* lmax) const {
  // A grid too large to paint: rectangles inside the grid that are pairwise
  // disjoint and whose areas sum to n1*n2 cover it exactly.
  std::vector<std::size_t> order;
  std::int64_t area = 0;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const Rect& r = rects[i];
    if (r.x0 >= r.x1 || r.y0 >= r.y1) continue;
    order.push_back(i);
    area += static_cast<std::int64_t>(r.x1 - r.x0) * (r.y1 - r.y0);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rects[a].x0 < rects[b].x0;
  });
  for (std::size_t a = 0; a < order.size(); ++a) {
    const Rect& ra = rects[order[a]];
    for (std::size_t b = a + 1; b < order.size(); ++b) {
      const Rect& rb = rects[order[b]];
      if (rb.x0 >= ra.x1) break;  // sorted by x0: no later one overlaps ra
      if (rb.y0 < ra.y1 && ra.y0 < rb.y1)
        return "rectangles " + std::to_string(order[a]) + " and " +
               std::to_string(order[b]) + " overlap";
    }
  }
  const std::int64_t want = static_cast<std::int64_t>(n1_) * n2_;
  if (area != want)
    return "rectangles cover " + std::to_string(area) + " of " +
           std::to_string(want) + " cells";
  *lmax = 0;
  for (const std::size_t i : order) *lmax = std::max(*lmax, sparse_load(rects[i]));
  return "";
}

std::vector<std::string> check_orderings(
    const std::map<std::string, std::int64_t>& lmax, int m) {
  std::vector<std::string> bad;
  const auto get = [&](const std::string& e) -> const std::int64_t* {
    const auto it = lmax.find(e);
    return it == lmax.end() ? nullptr : &it->second;
  };
  const auto le = [&](const std::string& a, const std::string& b) {
    const std::int64_t* va = get(a);
    const std::int64_t* vb = get(b);
    if (va != nullptr && vb != nullptr && *va > *vb)
      bad.push_back(a + " (" + std::to_string(*va) + ") > " + b + " (" +
                    std::to_string(*vb) + ") at m=" + std::to_string(m));
  };
  le("jag-pq-opt", "jag-pq-heur");
  le("jag-m-opt", "jag-m-heur");
  le("jag-m-heur-auto", "jag-m-heur");
  int root = 0;
  while ((root + 1) * (root + 1) <= m) ++root;
  if (root * root == m) le("jag-m-opt", "jag-pq-opt");
  for (const char* best : {"jag-pq-heur", "jag-pq-opt", "jag-m-heur",
                           "jag-m-opt"}) {
    const std::string b = best;
    const std::int64_t* vb = get(b);
    const std::int64_t* vh = get(b + "-hor");
    const std::int64_t* vv = get(b + "-ver");
    if (vb != nullptr && vh != nullptr && vv != nullptr &&
        *vb != std::min(*vh, *vv))
      bad.push_back(b + " (" + std::to_string(*vb) + ") != min(-hor " +
                    std::to_string(*vh) + ", -ver " + std::to_string(*vv) +
                    ") at m=" + std::to_string(m));
  }
  return bad;
}

std::vector<std::string> checker_selftest(int* cases) {
  std::vector<std::string> fails;
  int n = 0;
  std::mt19937_64 rng(7);
  const int n1 = 7, n2 = 5;
  std::vector<std::int64_t> cells(static_cast<std::size_t>(n1) * n2);
  std::vector<Reference::Triple> triples;
  for (int x = 0; x < n1; ++x)
    for (int y = 0; y < n2; ++y) {
      const auto v = static_cast<std::int64_t>(rng() % 9);
      cells[static_cast<std::size_t>(x) * n2 + y] = v;
      if (v != 0) {
        // Split some cells into two triples: duplicates must add up.
        if (v > 4) {
          triples.push_back({x, y, 3});
          triples.push_back({x, y, v - 3});
        } else {
          triples.push_back({x, y, v});
        }
      }
    }
  std::shuffle(triples.begin(), triples.end(), rng);
  const Reference refs[2] = {Reference::dense(n1, n2, cells),
                             Reference::sparse(n1, n2, triples)};
  // A valid 4-way partition plus one empty rectangle (m = 5).
  const std::vector<Rect> good = {
      {0, 3, 0, 2}, {0, 3, 2, 5}, {3, 7, 0, 4}, {3, 7, 4, 5}, {0, 0, 0, 0}};
  std::int64_t lmax = 0;
  for (const Rect& r : good) {
    std::int64_t load = 0;
    for (int x = r.x0; x < r.x1; ++x)
      for (int y = r.y0; y < r.y1; ++y)
        load += cells[static_cast<std::size_t>(x) * n2 + y];
    lmax = std::max(lmax, load);
  }
  struct Case {
    const char* name;
    std::vector<Rect> rects;
    int m;
    std::int64_t lmax;
    bool valid;
  };
  std::vector<Rect> gap = good, overlap = good, outside = good, moved = good;
  gap[2] = {3, 6, 0, 4};          // row 6 of columns 0..3 uncovered
  overlap[1] = {0, 4, 2, 5};      // overlaps rectangle 3's rows
  outside[3] = {3, 8, 4, 5};      // leaves the grid
  moved[4] = {6, 7, 4, 5};        // a second owner of cell (6, 4)
  std::vector<Rect> fewer(good.begin(), good.end() - 1);
  const std::vector<Case> cases_list = {
      {"intact", good, 5, lmax, true},
      {"gap", gap, 5, lmax, false},
      {"overlap", overlap, 5, lmax, false},
      {"out-of-bounds", outside, 5, lmax, false},
      {"double-owner", moved, 5, lmax, false},
      {"wrong-m", fewer, 5, lmax, false},
      {"m-mismatch", good, 4, lmax, false},
      {"wrong-lmax-high", good, 5, lmax + 1, false},
      {"wrong-lmax-low", good, 5, lmax - 1, false},
  };
  for (const Reference& ref : refs) {
    for (const Case& c : cases_list) {
      ++n;
      const std::string why = ref.check(c.rects, c.m, c.lmax);
      if (why.empty() != c.valid)
        fails.push_back(std::string(ref.is_dense() ? "dense " : "sparse ") +
                        c.name + ": checker " +
                        (c.valid ? "rejected a valid partition: " + why
                                 : std::string("accepted a broken partition")));
    }
  }
  // Lower bound: max cell dominates on a spike, ceil(total/m) otherwise.
  {
    ++n;
    const Reference spike = Reference::dense(1, 2, {10, 0});
    if (!spike.check({{0, 1, 0, 1}, {0, 1, 1, 2}}, 2, 10).empty())
      fails.push_back("lower bound: valid spike partition rejected");
    ++n;
    if (spike.lower_bound(2) != 10 || Reference::dense(1, 2, {3, 4})
                                              .lower_bound(2) != 4)
      fails.push_back("lower bound: max(ceil(total/m), max cell) wrong");
  }
  // Orderings: each rule must fire on a violation and stay quiet otherwise.
  const std::map<std::string, std::int64_t> ok_lmax = {
      {"jag-pq-heur", 12}, {"jag-pq-heur-hor", 12}, {"jag-pq-heur-ver", 13},
      {"jag-pq-opt", 10},  {"jag-pq-opt-hor", 11},  {"jag-pq-opt-ver", 10},
      {"jag-m-heur", 11},  {"jag-m-heur-hor", 11},  {"jag-m-heur-ver", 14},
      {"jag-m-heur-auto", 11}, {"jag-m-opt", 9},  {"jag-m-opt-hor", 9},
      {"jag-m-opt-ver", 9}};
  ++n;
  if (!check_orderings(ok_lmax, 16).empty())
    fails.push_back("orderings: consistent Lmax set rejected");
  const std::vector<std::pair<std::string, std::int64_t>> breaks = {
      {"jag-pq-opt", 13},     // > jag-pq-heur
      {"jag-m-opt", 12},      // > jag-m-heur
      {"jag-m-heur-auto", 12},  // > jag-m-heur
      {"jag-pq-heur", 11},    // != min(hor, ver)
      {"jag-m-opt-ver", 8},   // jag-m-opt != min(hor, ver)
  };
  for (const auto& [engine, value] : breaks) {
    ++n;
    auto broken = ok_lmax;
    broken[engine] = value;
    if (check_orderings(broken, 16).empty())
      fails.push_back("orderings: violation via " + engine + " accepted");
  }
  {
    ++n;  // jag-m-opt > jag-pq-opt only counts on square m
    auto broken = ok_lmax;
    broken["jag-m-opt"] = broken["jag-m-opt-hor"] = broken["jag-m-opt-ver"] =
        11;  // still <= jag-m-heur, but above jag-pq-opt (10)
    if (check_orderings(broken, 16).empty())
      fails.push_back("orderings: jag-m-opt > jag-pq-opt on square m accepted");
    ++n;
    if (!check_orderings(broken, 12).empty())
      fails.push_back("orderings: jag-m-opt vs jag-pq-opt applied to m=12");
  }
  if (cases != nullptr) *cases = n;
  return fails;
}

}  // namespace perfbench
