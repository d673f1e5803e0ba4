// daemon-mix: a closed loop of mixed requests against an in-process
// partition daemon (service::Server), driven through service::ServiceClient
// over a Unix socket from `connections` client threads (nproc, at most 4).
// The daemon runs as `rectpart_served --threads=1 --pool=connections+2`
// would (the library width is main()'s, 1 unless RECTPART_THREADS is set):
// each engine runs on its connection's handler thread, so requests run
// side by side instead of contending for one library pool.
//
// One round is 200 requests, 40 of each of five classes, spread evenly
// through it.  No record of real traffic exists to weight the classes by,
// so they get equal shares; the gated figures that do not depend on the
// shares are per class (see run_daemon_mix).
//   warm      dense 256² resubmissions of two matrices (cache hits):
//             jag-m-heur and hier-rb, m = 64
//   cold      dense 512² matrices from a pool of 24 read from disk per
//             request; the pool outnumbers the 16-entry cache, so every one
//             misses (payload read, fingerprint, Γ build, insert, eviction);
//             rect-uniform m = 64, so that the solve is a small part of it
//   coo       one 2048² power-law COO (2^14 entries) resubmitted:
//             jag-pq-heur m = 64 through the ProjectionMemo path
//   lineage   successive PIC-MAG 128² snapshots on one lineage,
//             jag-m-heur m = 16 (the Rebalancer keeps or repartitions)
//   deadline  26x jag-pq-opt with deadline_ms = 0 (the incumbent comes
//             back), 13x jag-m-heur with 1000 ms (met), and 1x hier-opt
//             on a 24² peak, m = 9, deadline_ms = 10
// A deadline request fails when its first answer arrives later than
// deadline + kEpsilonMs.  hier-opt never polls its RunContext, so that one
// request per round fails every time: it is counted in `failed`.  Any other
// failed check fails the run.
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "checker.hpp"
#include "io/matrix_io.hpp"
#include "obs/counters.hpp"
#include "picmag/picmag.hpp"
#include "prefix/prefix_sum.hpp"
#include "service/client.hpp"
#include "service/fingerprint.hpp"
#include "service/server.hpp"
#include "util/json.hpp"
#include "workloads.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {

namespace {

using namespace rectpart;

constexpr double kEpsilonMs = 50;  ///< deadline slack before a request fails
constexpr int kColdPool = 24;
constexpr int kCacheCapacity = 16;
constexpr int kLineageSnapshots = 8;
const char* const kLineageName = "picmag";

enum class Cls { kWarm, kCold, kCoo, kLineage, kDeadline };
const char* cls_name(Cls c) {
  switch (c) {
    case Cls::kWarm: return "warm";
    case Cls::kCold: return "cold";
    case Cls::kCoo: return "coo";
    case Cls::kLineage: return "lineage";
    case Cls::kDeadline: return "deadline";
  }
  return "?";
}

/// A request template of the round.  `payload` indexes the dense payloads
/// (or -1 for the COO one); cold and lineage requests pick theirs per
/// round.
struct Slot {
  Cls cls;
  int payload = 0;
  std::string algo;
  int m = 0;
  std::optional<std::int64_t> deadline_ms;
};

/// Dense payloads: [0] warm-a, [1] warm-b, [2] hier-opt 24², then the cold
/// pool, then the lineage snapshots.
constexpr int kWarmA = 0, kWarmB = 1, kHier = 2, kColdBase = 3,
              kLineageBase = kColdBase + kColdPool;

/// The files of the round's payloads, in payload order.
std::vector<std::string> dense_paths(const std::string& dir) {
  std::vector<std::string> paths = {dir + "/warm-a.bin", dir + "/warm-b.bin",
                                    dir + "/hier-24.bin"};
  for (int i = 0; i < kColdPool; ++i)
    paths.push_back(dir + "/cold-" + std::to_string(i) + ".bin");
  for (int i = 0; i < kLineageSnapshots; ++i)
    paths.push_back(dir + "/lineage-" + std::to_string(i) + ".bin");
  return paths;
}

bool is_cold(int payload) {
  return payload >= kColdBase && payload < kColdBase + kColdPool;
}

/// What the client holds: the payloads it resubmits (cold ones are read
/// from disk per request) and the checker's copy of every payload.
struct Inputs {
  std::vector<std::string> dense_paths;
  std::vector<LoadMatrix> dense;  ///< client copies; empty for cold payloads
  std::string coo_path;
  CooInstance coo;
  std::vector<Reference> dense_ref;
  Reference coo_ref;
};

Inputs read_payloads(const std::string& dir) {
  Inputs in;
  in.dense_paths = dense_paths(dir);
  for (std::size_t i = 0; i < in.dense_paths.size(); ++i)
    in.dense.push_back(is_cold(static_cast<int>(i))
                           ? LoadMatrix()
                           : load_matrix_binary(in.dense_paths[i]));
  in.coo_path = dir + "/coo.rpc";
  in.coo = load_coo_binary(in.coo_path);
  return in;
}

std::vector<Slot> round_template() {
  constexpr int kPerClass = 40;
  std::vector<std::pair<double, Slot>> keyed;
  const auto spread = [&](const std::vector<Slot>& kinds) {
    for (int k = 0; k < kPerClass; ++k)
      keyed.emplace_back((k + 0.5) / kPerClass,
                         kinds[static_cast<std::size_t>(k) % kinds.size()]);
  };
  spread({{Cls::kWarm, kWarmA, "jag-m-heur", 64, {}},
          {Cls::kWarm, kWarmB, "hier-rb", 64, {}}});
  spread({{Cls::kCold, kColdBase, "rect-uniform", 64, {}}});
  spread({{Cls::kCoo, -1, "jag-pq-heur", 64, {}}});
  spread({{Cls::kLineage, kLineageBase, "jag-m-heur", 16, {}}});
  std::vector<Slot> deadline;
  for (int k = 0; k < kPerClass; ++k)
    deadline.push_back(
        k == kPerClass / 2 ? Slot{Cls::kDeadline, kHier, "hier-opt", 9, 10}
        : k % 3 == 1       ? Slot{Cls::kDeadline, kWarmB, "jag-m-heur", 64, 1000}
                           : Slot{Cls::kDeadline, kWarmA, "jag-pq-opt", 64, 0});
  spread(deadline);
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Slot> out;
  for (auto& [key, slot] : keyed) out.push_back(slot);
  return out;
}

/// One answered request, checked after the loop.
struct Record {
  std::int64_t index = 0;  ///< global op index (round * R + slot)
  Cls cls = Cls::kWarm;
  int payload = 0;         ///< dense payload index, -1 for COO
  std::string algo;
  int m = 0;
  std::optional<std::int64_t> deadline_ms;
  double rtt_ms = 0;
  double load_ms = -1;     ///< cold: file read before the request
  service::Response resp;
};

std::uint64_t hash_rects(const Partition& p) {
  std::uint64_t h = service::kFnvOffsetBasis;
  for (const Rect& r : p.rects) h = service::fnv1a64(&r, sizeof r, h);
  return h;
}

/// The closed loop: `connections` threads claim op indices in order under
/// one mutex; once the run time is spent, claiming continues only to the
/// end of the current round, so every run attempts whole rounds.  Lineage
/// steps run in claim order (a step waits for its predecessor), and each
/// "kept" answer is compared with the previous partition right there.
class Loop {
 public:
  Loop(const Inputs& in, const std::vector<Slot>& slots,
       const std::string& socket, double seconds, int connections)
      : in_(in), slots_(slots), socket_(socket), seconds_(seconds),
        connections_(connections) {}

  void run() {
    start_ = Clock::now();
    std::vector<std::thread> threads;
    std::vector<std::vector<Record>> per(static_cast<std::size_t>(connections_));
    for (int c = 0; c < connections_; ++c)
      threads.emplace_back([this, &per, c] { client(&per[static_cast<std::size_t>(c)]); });
    for (std::thread& t : threads) t.join();
    wall_ms_ = ms_since(start_);
    for (auto& v : per)
      for (Record& r : v) records_.push_back(std::move(r));
    std::sort(records_.begin(), records_.end(),
              [](const Record& a, const Record& b) { return a.index < b.index; });
  }

  [[nodiscard]] std::vector<Record>& records() { return records_; }
  [[nodiscard]] double wall_ms() const { return wall_ms_; }
  [[nodiscard]] std::int64_t rounds() const {
    return next_ / static_cast<std::int64_t>(slots_.size());
  }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }
  /// Wall time of each round: from the claim of its first request to the
  /// claim of the next round's first request (the last round: to the end
  /// of the loop).
  [[nodiscard]] std::vector<double> round_ms() const {
    std::vector<double> out;
    for (std::size_t k = 0; k < round_start_ms_.size(); ++k)
      out.push_back((k + 1 < round_start_ms_.size() ? round_start_ms_[k + 1]
                                                    : wall_ms_) -
                    round_start_ms_[k]);
    return out;
  }
  [[nodiscard]] std::int64_t kept() const { return kept_; }
  [[nodiscard]] std::int64_t lineage_steps() const { return lineage_steps_; }

 private:
  bool claim(std::int64_t* index) {
    std::lock_guard<std::mutex> lock(claim_mu_);
    const auto r = static_cast<std::int64_t>(slots_.size());
    if (!stopping_ && ms_since(start_) >= seconds_ * 1000.0) stopping_ = true;
    if (stopping_ && next_ % r == 0 && next_ > 0) return false;
    *index = next_++;
    if (*index % r == 0) round_start_ms_.push_back(ms_since(start_));
    // The chrome trace keeps the first two rounds; the ledger keeps all.
    if (*index == 2 * r) obs::trace_enable(false);
    return true;
  }

  void client(std::vector<Record>* out) {
    try {
      service::ServiceClient conn(socket_, 5000);
      std::int64_t index = 0;
      while (claim(&index)) out->push_back(one(conn, index));
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(err_mu_);
        errors_.push_back(std::string("client: ") + e.what());
      }
      // Unblock any lineage waiter behind a step this thread will not run.
      std::lock_guard<std::mutex> lock(lineage_mu_);
      lineage_broken_ = true;
      lineage_cv_.notify_all();
    }
  }

  Record one(service::ServiceClient& conn, std::int64_t index) {
    const auto r = static_cast<std::int64_t>(slots_.size());
    const Slot& slot = slots_[static_cast<std::size_t>(index % r)];
    const std::int64_t round = index / r;
    Record rec;
    rec.index = index;
    rec.cls = slot.cls;
    rec.algo = slot.algo;
    rec.m = slot.m;
    rec.deadline_ms = slot.deadline_ms;
    rec.payload = slot.payload;
    service::SolveOptions so;
    so.algo = slot.algo;
    so.m = slot.m;
    so.deadline_ms = slot.deadline_ms;
    Layer op("op.request");
    if (slot.cls == Cls::kCoo) {
      Layer l("service.round_trip");
      const auto t0 = Clock::now();
      rec.resp = conn.solve(in_.coo, so);
      rec.rtt_ms = ms_since(t0);
      return rec;
    }
    if (slot.cls == Cls::kCold) {
      const std::int64_t nth = round * count_before(Cls::kCold, r) +
                               count_before(Cls::kCold, index % r);
      rec.payload = kColdBase + static_cast<int>(nth % kColdPool);
      LoadMatrix a;
      {
        Layer l("io.load_dense");
        const auto t0 = Clock::now();
        a = load_matrix_binary(in_.dense_paths[static_cast<std::size_t>(rec.payload)]);
        rec.load_ms = ms_since(t0);
      }
      Layer l("service.round_trip");
      const auto t0 = Clock::now();
      rec.resp = conn.solve(a, so);
      rec.rtt_ms = ms_since(t0);
      return rec;
    }
    if (slot.cls == Cls::kLineage) {
      so.lineage = kLineageName;
      std::unique_lock<std::mutex> lock(lineage_mu_);
      const std::int64_t step = round * count_before(Cls::kLineage, r) +
                                count_before(Cls::kLineage, index % r);
      lineage_cv_.wait(lock, [&] { return lineage_done_ == step || lineage_broken_; });
      if (lineage_broken_) throw std::runtime_error("lineage chain broken");
      rec.payload = kLineageBase + static_cast<int>(step % kLineageSnapshots);
      {
        Layer l("service.round_trip");
        const auto t0 = Clock::now();
        rec.resp = conn.solve(in_.dense[static_cast<std::size_t>(rec.payload)], so);
        rec.rtt_ms = ms_since(t0);
      }
      ++lineage_steps_;
      if (rec.resp.ok && rec.resp.rebalance == "kept") {
        ++kept_;
        if (have_prev_ && rec.resp.partition.rects != prev_.rects) {
          std::lock_guard<std::mutex> el(err_mu_);
          errors_.push_back("lineage step " + std::to_string(step) +
                            ": \"kept\" answer differs from the previous "
                            "partition");
        }
      }
      prev_ = rec.resp.partition;
      have_prev_ = rec.resp.ok;
      ++lineage_done_;
      lineage_cv_.notify_all();
      return rec;
    }
    Layer l("service.round_trip");
    const auto t0 = Clock::now();
    rec.resp = conn.solve(in_.dense[static_cast<std::size_t>(slot.payload)], so);
    rec.rtt_ms = ms_since(t0);
    return rec;
  }

  /// Requests of class `cls` among the round's first `pos` slots: the
  /// ordinal that picks a cold payload or a lineage step.
  [[nodiscard]] std::int64_t count_before(Cls cls, std::int64_t pos) const {
    std::int64_t n = 0;
    for (std::int64_t i = 0; i < pos; ++i)
      if (slots_[static_cast<std::size_t>(i)].cls == cls) ++n;
    return n;
  }

  const Inputs& in_;
  const std::vector<Slot>& slots_;
  std::string socket_;
  double seconds_;
  int connections_;
  Clock::time_point start_{};
  double wall_ms_ = 0;

  std::mutex claim_mu_;
  std::int64_t next_ = 0;   // guarded by claim_mu_
  bool stopping_ = false;   // guarded by claim_mu_
  std::vector<double> round_start_ms_;  // guarded by claim_mu_

  std::mutex lineage_mu_;
  std::condition_variable lineage_cv_;
  std::int64_t lineage_done_ = 0;  // guarded by lineage_mu_
  bool lineage_broken_ = false;    // guarded by lineage_mu_
  Partition prev_;                 // guarded by lineage_mu_
  bool have_prev_ = false;         // guarded by lineage_mu_
  std::int64_t kept_ = 0;          // guarded by lineage_mu_
  std::int64_t lineage_steps_ = 0; // guarded by lineage_mu_

  std::mutex err_mu_;
  std::vector<std::string> errors_;  // guarded by err_mu_
  std::vector<Record> records_;
};

/// Sum and count of every rectpart_engine_run_us series in a metrics-op
/// telemetry snapshot.
std::pair<double, double> engine_run_us(service::ServiceClient& conn) {
  const service::Response r = conn.metrics();
  const auto doc = json_parse(r.telemetry_json);
  double sum = 0, count = 0;
  if (!doc) return {0, 0};
  const JsonValue* series = doc->find("series");
  if (series == nullptr) return {0, 0};
  for (const JsonValue& s : series->items())
    if (s.get_string("name", "") == "rectpart_engine_run_us") {
      sum += s.get_double("sum", 0);
      count += s.get_double("count", 0);
    }
  return {sum, count};
}

}  // namespace

void write_daemon_mix_inputs(const std::string& dir, std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  const std::vector<std::string> paths = dense_paths(dir);
  std::size_t next = 0;
  const auto add = [&](const LoadMatrix& a) {
    const std::string& path = paths.at(next++);
    save_matrix_binary(a, path);
    Reference::dense(a.rows(), a.cols(),
                     std::vector<std::int64_t>(a.begin(), a.end()))
        .save(reference_path(path));
  };
  add(gen_peak(256, 256, seed));
  add(gen_multipeak(256, 256, 3, seed + 1));
  add(gen_peak(24, 24, seed + 2));
  const char* families[] = {"uniform", "diagonal", "peak", "multipeak"};
  for (int i = 0; i < kColdPool; ++i)
    add(make_synthetic(families[i % 4], 512, 512, seed * 1000 + 10 + i));
  PicMagConfig cfg;
  cfg.n1 = cfg.n2 = 128;
  cfg.particles = 8000;
  cfg.seed = seed;
  PicMagSimulator sim(cfg);
  for (int i = 0; i < kLineageSnapshots; ++i)
    add(sim.snapshot_at((i + 1) * PicMagSimulator::kSnapshotStride));
  const CooInstance coo = gen_powerlaw_coo(2048, 2048, 1 << 14, seed + 3);
  const std::string coo_path = dir + "/coo.rpc";
  save_coo_binary(coo, coo_path);
  std::vector<Reference::Triple> t;
  for (const CooEntry& e : coo.entries) t.push_back({e.r, e.c, e.v});
  Reference::sparse(coo.n1, coo.n2, std::move(t)).save(reference_path(coo_path));
}

Outcome run_daemon_mix(const Options& opt) {
  Outcome out;
  const std::string dir = workload_dir(opt);
  const std::string socket =
      dir + "/daemon-" + std::to_string(getpid()) + ".sock";
  const std::vector<Slot> slots = round_template();

  service::ServerOptions so;
  so.socket_path = socket;
  // A pool slot per loop connection, one for the metrics probe, one spare.
  so.threads = opt.connections + 2;
  so.cache_capacity = kCacheCapacity;

  // -- set-up, kSetupReps times: inputs and files (in a child process),
  // daemon start, the client's payload copies, warm-up (each warm dense and
  // COO payload once).  The last daemon stays up.
  clear_workload_dir(opt);
  std::vector<double> setup_ms;
  Inputs in;
  std::unique_ptr<service::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) server->stop();
    server.reset();
    in = Inputs();
    const auto t0 = Clock::now();
    (void)make_inputs_in_child(opt, inputs_dir(opt, rep));
    server = std::make_unique<service::Server>(so);
    server->start();
    in = read_payloads(inputs_dir(opt, rep));
    service::ServiceClient warm(socket, 5000);
    std::set<std::pair<int, std::string>> primed;
    for (const Slot& s : slots) {
      if ((s.cls != Cls::kWarm && s.cls != Cls::kCoo) ||
          !primed.emplace(s.payload, s.algo).second)
        continue;
      service::SolveOptions w;
      w.algo = s.algo;
      w.m = s.m;
      const service::Response r =
          s.cls == Cls::kCoo
              ? warm.solve(in.coo, w)
              : warm.solve(in.dense[static_cast<std::size_t>(s.payload)], w);
      if (!r.ok) out.error("warm-up: " + r.error);
    }
    setup_ms.push_back(ms_since(t0));
  }
  drop_earlier_inputs(opt);
  print_setup_ms(setup_ms);
  for (const std::string& path : in.dense_paths)
    in.dense_ref.push_back(Reference::load(reference_path(path)));
  in.coo_ref = Reference::load(reference_path(in.coo_path));

  // -- the timed closed loop.
  service::ServiceClient probe(socket, 5000);
  const auto engine_before = engine_run_us(probe);
  const obs::CounterSnapshot before = obs::counters_snapshot();
  if (opt.trace) {
    Ledger::reset();
    Ledger::enable(true);
    obs::trace_reset();
    obs::trace_enable(true);
  }
  Loop loop(in, slots, socket, opt.seconds, opt.connections);
  loop.run();
  obs::trace_enable(false);
  Ledger::enable(false);
  // The daemon and its clients share this process: its high-water mark is
  // the daemon's cache and working memory plus the client's payload copies
  // and the checker's copies (fixed for a seed).
  const double rss_mib = peak_rss_mib();
  const obs::CounterSnapshot work = obs::counters_snapshot().delta_since(before);
  const auto engine_after = engine_run_us(probe);
  for (const std::string& e : loop.errors()) out.error(e);

  // -- checks: every answer against the client's own copy of its matrix.
  std::map<std::string, std::vector<double>> rtt_by_cls;
  std::vector<double> server_ok, wire_warm, load_ms, quality;
  std::map<std::string, std::int64_t> verified;  // payload|m|hash -> lmax
  std::set<std::string> rated;  // payload|algo|m|deadline seen in `quality`
  const auto r_len = static_cast<std::int64_t>(slots.size());
  std::int64_t late_hier = 0, late_hier_unflagged = 0;
  for (const Record& rec : loop.records()) {
    const std::string cls = cls_name(rec.cls);
    const std::string label = cls + " #" + std::to_string(rec.index) + " " +
                              rec.algo + " m=" + std::to_string(rec.m);
    if (rec.load_ms >= 0) load_ms.push_back(rec.load_ms);
    if (!rec.resp.ok) {
      out.error(label + ": daemon error: " + rec.resp.error);
      out.count(cls, 1, 0);
      continue;
    }
    const Reference& ref =
        rec.payload < 0 ? in.coo_ref
                        : in.dense_ref[static_cast<std::size_t>(rec.payload)];
    const std::string key = std::to_string(rec.payload) + "|" +
                            std::to_string(rec.m) + "|" +
                            std::to_string(hash_rects(rec.resp.partition));
    const auto it = verified.find(key);
    if (it == verified.end()) {
      const std::string why =
          ref.check(rec.resp.partition.rects, rec.m, rec.resp.lmax);
      if (!why.empty())
        out.error(label + ": " + why);
      else
        verified.emplace(key, rec.resp.lmax);
    } else if (it->second != rec.resp.lmax) {
      out.error(label + ": reported Lmax " + std::to_string(rec.resp.lmax) +
                " for an already verified partition with Lmax " +
                std::to_string(it->second));
    }
    const bool late = rec.deadline_ms.has_value() &&
                      rec.rtt_ms > static_cast<double>(*rec.deadline_ms) + kEpsilonMs;
    if (late && rec.algo != "hier-opt")
      out.error(label + ": answered after " + std::to_string(rec.rtt_ms) +
                " ms against a " + std::to_string(*rec.deadline_ms) +
                " ms deadline");
    out.count(cls, 1, late && rec.algo == "hier-opt" ? 1 : 0);
    if (late) {
      ++late_hier;
      if (!rec.resp.deadline_return) ++late_hier_unflagged;
      continue;
    }
    server_ok.push_back(rec.resp.ms);
    rtt_by_cls[cls].push_back(rec.rtt_ms);
    if (rec.cls == Cls::kWarm) wire_warm.push_back(rec.rtt_ms - rec.resp.ms);
    // Quality counts each distinct request once, at its first answer, so
    // it covers every cold and lineage payload whatever the round count.
    if (rated.insert(std::to_string(rec.payload) + "|" + rec.algo + "|" +
                     std::to_string(rec.m) + "|" +
                     std::to_string(rec.deadline_ms.value_or(-1)))
            .second)
      quality.push_back(static_cast<double>(rec.resp.lmax) /
                        static_cast<double>(ref.lower_bound(rec.m)));
  }

  const double rounds = static_cast<double>(loop.rounds());
  std::vector<double> class_medians;
  for (const auto& [cls, v] : rtt_by_cls) class_medians.push_back(median(v));
  std::fprintf(stderr,
               "# daemon-mix: %lld rounds of %lld requests, %d connections, "
               "daemon pool %d, library threads %d, wall %.3f s\n",
               static_cast<long long>(loop.rounds()),
               static_cast<long long>(r_len), opt.connections, so.threads,
               opt.threads, loop.wall_ms() / 1000.0);

  // The per-class figures do not depend on the class shares; the round's
  // wall time (the closed loop's throughput) does.
  std::map<std::string, double> e2e = {
      {"setup_s", median(setup_ms) / 1000.0},
      {"ingest_s", median(rtt_by_cls["cold"]) / 1000.0},
      {"solve_ms_gmean", gmean(class_medians)},
      {"sweep_s", median(loop.round_ms()) / 1000.0},
      {"lmax_over_lb", gmean(quality)},
      {"peak_rss_mib", rss_mib},
  };
  std::fprintf(stderr, "# successful round trips %zu, %.1f requests/s\n",
               server_ok.size(),
               static_cast<double>(loop.records().size()) /
                   (loop.wall_ms() / 1000.0));
  for (const auto& [cls, v] : rtt_by_cls)
    std::fprintf(stderr, "#   %-9s %6zu requests, rtt p50 %.4f ms, p99 %.4f ms\n",
                 cls.c_str(), v.size(), quantile(v, 0.5), quantile(v, 0.99));
  std::fprintf(stderr,
               "# late hier-opt answers %lld, %lld of them without "
               "deadline_return\n",
               static_cast<long long>(late_hier),
               static_cast<long long>(late_hier_unflagged));

  if (!opt.trace) {
    out.values = e2e;
    server->stop();
    return out;
  }
  for (const auto& [k, v] : e2e)
    std::fprintf(stderr, "# traced end-to-end %s %.6g\n", k.c_str(), v);
  print_layer_table(opt.workload, "op.request");

  for (const auto& [cls, v] : rtt_by_cls)
    out.set("service.rtt_ms." + cls, median(v));
  out.set("service.server_ms", median(server_ok));
  out.set("service.wire_ms", median(wire_warm));
  const double engine_n = engine_after.second - engine_before.second;
  const double engine_ms =
      engine_n > 0 ? (engine_after.first - engine_before.first) / engine_n / 1000.0
                   : 0;
  out.set("service.engine_ms", engine_ms);
  const double reqs = static_cast<double>(work[obs::Counter::kServiceRequests]);
  out.set("service.cache_hit_ratio",
          reqs > 0 ? static_cast<double>(work[obs::Counter::kServiceCacheHits]) / reqs
                   : 0);
  out.set("service.deadline_returns",
          static_cast<double>(work[obs::Counter::kServiceDeadlineReturns]) /
              std::max(rounds, 1.0));
  out.set("dynamic.kept_ratio",
          loop.lineage_steps() > 0
              ? static_cast<double>(loop.kept()) /
                    static_cast<double>(loop.lineage_steps())
              : 0);
  for (const auto& [name, c] : layer_counters())
    out.set(name, static_cast<double>(work[c]) /
                      (c == obs::Counter::kPoolQueueHighWatermark
                           ? 1.0
                           : std::max(rounds, 1.0)));

  // Replays of what the daemon does per request, on the first round's
  // payloads: fingerprint, Γ / CSR build, and Partition::max_load (which
  // the daemon runs twice per answer: lmax and imbalance).  Their spans go
  // to the chrome trace after the loop's.
  Ledger::enable(true);
  obs::trace_enable(true);
  std::vector<double> fp_ms, gamma_ms, maxload_ms, coo_load_ms, csr_ms;
  for (const Record& rec : loop.records()) {
    if (rec.index >= r_len || !rec.resp.ok) continue;
    if (rec.payload < 0) {
      CooInstance coo;
      {
        Layer l("io.load_coo");
        const auto t0 = Clock::now();
        coo = load_coo_binary(in.coo_path);
        coo_load_ms.push_back(ms_since(t0));
      }
      {
        Layer l("service.fingerprint");
        const auto t0 = Clock::now();
        (void)service::fingerprint_coo(coo);
        fp_ms.push_back(ms_since(t0));
      }
      std::optional<SparseLoadCSR> csr;
      {
        Layer l("prefix.csr_build");
        const auto t0 = Clock::now();
        csr.emplace(SparseLoadCSR::from_coo(coo.n1, coo.n2, std::move(coo.entries)));
        csr_ms.push_back(ms_since(t0));
      }
      Layer l("core.max_load");
      const auto t0 = Clock::now();
      (void)rec.resp.partition.max_load(*csr);
      maxload_ms.push_back(ms_since(t0));
      continue;
    }
    const auto payload = static_cast<std::size_t>(rec.payload);
    const LoadMatrix cold = is_cold(rec.payload)
                                ? load_matrix_binary(in.dense_paths[payload])
                                : LoadMatrix();
    const LoadMatrix& a = is_cold(rec.payload) ? cold : in.dense[payload];
    {
      Layer l("service.fingerprint");
      const auto t0 = Clock::now();
      (void)service::fingerprint_matrix(a);
      fp_ms.push_back(ms_since(t0));
    }
    std::optional<PrefixSum2D> ps;
    {
      Layer l("prefix.gamma_build");
      const auto t0 = Clock::now();
      ps.emplace(a);
      if (rec.cls == Cls::kCold) gamma_ms.push_back(ms_since(t0));
    }
    Layer l("core.max_load");
    const auto t0 = Clock::now();
    (void)rec.resp.partition.max_load(*ps);
    maxload_ms.push_back(ms_since(t0));
  }
  obs::trace_enable(false);
  Ledger::enable(false);
  out.set("io.load_dense_ms", median(load_ms));
  out.set("io.load_coo_ms", median(coo_load_ms));
  out.set("prefix.gamma_build_ms", median(gamma_ms));
  out.set("prefix.csr_build_ms", median(csr_ms));
  out.set("service.fingerprint_ms", median(fp_ms));
  out.set("core.max_load_ms", median(maxload_ms));

  // The round trip, decomposed per answered request (means): the daemon's
  // own time and the wire around it; inside the daemon, the engine runs
  // (telemetry: the requested engine, plus the incumbent on deadline
  // requests) and the replayed fingerprint, Γ build (cold share) and the
  // two max_load passes.
  double rtt_sum = 0, server_sum = 0;
  for (const Record& rec : loop.records()) {
    rtt_sum += rec.rtt_ms;
    server_sum += rec.resp.ms;
  }
  const double n_req =
      std::max<double>(1, static_cast<double>(loop.records().size()));
  const double rtt_mean = rtt_sum / n_req, server_mean = server_sum / n_req;
  const double engine_per_req =
      (engine_after.first - engine_before.first) / 1000.0 / n_req;
  const double cold_share =
      static_cast<double>(out.classes["cold"].first) / n_req;
  double fp_sum = 0;  // the replay covers one round, each request once
  for (const double v : fp_ms) fp_sum += v;
  const double fp = fp_ms.empty() ? 0 : fp_sum / static_cast<double>(fp_ms.size());
  const double gb = median(gamma_ms) * cold_share,
               ml = 2 * median(maxload_ms);
  std::fprintf(stderr,
               "# round-trip decomposition (mean ms per answered request):\n"
               "  rtt %.4f = wire %.4f + server %.4f\n"
               "  server %.4f = engine %.4f + fingerprint %.4f + gamma build "
               "(cold share) %.4f + 2x max_load %.4f + residual %.4f\n",
               rtt_mean, rtt_mean - server_mean, server_mean, server_mean,
               engine_per_req, fp, gb, ml,
               server_mean - engine_per_req - fp - gb - ml);
  const std::string trace_path = dir + "/trace.json";
  if (!obs::trace_write_json(trace_path))
    out.error("cannot write the chrome trace " + trace_path);
  else
    std::fprintf(stderr, "# chrome trace: %s\n", trace_path.c_str());
  server->stop();
  return out;
}

}  // namespace perfbench
