// wallbench: the wall-clock benchmark driver (see README.md in this
// directory for the workloads, metrics and how to read them).
//
//   wallbench --workload <planted-200k|rmat-18> --seed N
//             --seconds S --trace 0|1 [--dir DIR]
//
// One process runs one workload. It generates the input from the seed, times
// the library's public entry points from outside (nothing inside src/ is
// instrumented for this) in CPU seconds, which the gated metrics use, and in
// wall seconds, which are reported ungated. It checks every output outside
// the timed sections, prints a human-readable report and, as the last stdout
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Every workload runs both phases, so every metric is reported everywhere:
//   detect  load_binary + run_louvain, once under BSP and once under blas;
//   ingest  edge batches through update_communities + publish on the main
//           thread while one reader thread resolves vertex batches.
// Rounds of one detect pair and one epoch repeat until --seconds have passed.
//
// --trace 1 records spans around every call above (and runs the layer probes:
// run_level per backend, serial run_level, contract, apply_edge_updates, the
// oracle), prints the per-layer metrics, each layer's self time and share of
// each end-to-end time, and the tracing overhead, and writes the spans to DIR.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gala/blas/blas.hpp"
#include "gala/common/json.hpp"
#include "gala/common/prng.hpp"
#include "gala/core/aggregation.hpp"
#include "gala/core/backend.hpp"
#include "gala/core/gala.hpp"
#include "gala/core/incremental.hpp"
#include "gala/core/modularity.hpp"
#include "gala/core/sequential_louvain.hpp"
#include "gala/graph/generators.hpp"
#include "gala/graph/io.hpp"
#include "gala/query/executor.hpp"
#include "gala/query/store.hpp"

namespace {

using namespace gala;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- statistics

/// Linear interpolation between closest ranks (numpy's default quantile).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
/// CPU time of every thread of the process. Time the host's hypervisor
/// steals from a vCPU, and time a thread spends runnable but not running,
/// are not counted; both move wall time on a shared host.
double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
/// CPU time of the calling thread alone.
double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

/// The mean, over input graphs, of each graph's median.
double mean_of_medians(const std::map<std::size_t, std::vector<double>>& by_input) {
  if (by_input.empty()) return 0;
  double sum = 0;
  for (const auto& [input, v] : by_input) sum += median(v);
  return sum / static_cast<double>(by_input.size());
}
std::vector<double> flatten(const std::map<std::size_t, std::vector<double>>& by_input) {
  std::vector<double> all;
  for (const auto& [input, v] : by_input) all.insert(all.end(), v.begin(), v.end());
  return all;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ------------------------------------------------------------------- tracing

/// One timed interval. `parent` indexes the span log (-1 = root); spans of
/// one operation share `run`.
struct Span {
  const char* name;
  double start;
  double end;
  int parent;
  std::uint64_t run;
};

/// In-memory span log, written out when the run ends. Disabled (the timed
/// runs) it records nothing; every call site still times itself.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 17);
  }
  bool enabled() const { return enabled_; }

  int open(const char* name, int parent, std::uint64_t run, Clock::time_point start) {
    std::lock_guard lock(mutex_);
    spans_.push_back({name, offset(start), -1.0, parent, run});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id, Clock::time_point end) {
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = offset(end);
  }
  /// Adds `value` to a named count (counts are recorded at span boundaries).
  void count(const std::string& name, double value) {
    std::lock_guard lock(mutex_);
    counts_[name] += value;
  }

  /// Durations of every closed span called `name`, in seconds.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.end >= 0 && name == s.name) out.push_back(s.end - s.start);
    }
    return out;
  }
  /// Each span's duration minus the part of it its children cover.
  std::vector<double> self_seconds() const;
  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, double>& counts() const { return counts_; }
  double count_of(const std::string& name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  }

 private:
  double offset(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  const bool enabled_;
  const Clock::time_point origin_;
  std::mutex mutex_;  // guards spans_ and counts_
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

std::vector<double> Trace::self_seconds() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0, reach = s.start;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end);
      if (b > a) covered += b - a;
      reach = std::max(reach, b);
    }
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

/// Times one call; records it as a span when `trace` is non-null.
class Timed {
 public:
  Timed(Trace* trace, const char* name, int parent = -1, std::uint64_t run = 0)
      : trace_(trace), start_(Clock::now()) {
    if (trace_ != nullptr) id_ = trace_->open(name, parent, run, start_);
  }
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  int id() const { return id_; }
  /// Ends the interval (once) and returns its length in seconds.
  double stop() {
    if (!stopped_) {
      const Clock::time_point end = Clock::now();
      seconds_ = std::chrono::duration<double>(end - start_).count();
      if (trace_ != nullptr) trace_->close(id_, end);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Trace* trace_;
  Clock::time_point start_;
  int id_ = -1;
  bool stopped_ = false;
  double seconds_ = 0;
};

// -------------------------------------------------------------------- checks

/// Failed checks against operations attempted. Each operation counts once,
/// and as failed when any of its checks fails.
class Checks {
 public:
  void record(const std::string& what, const std::string& error) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (error.empty()) return;
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(mutex_);
    if (notes_.size() < 10) notes_.push_back(what + ": " + error);
  }
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> notes() const {
    std::lock_guard lock(mutex_);
    return notes_;
  }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mutex_;  // guards notes_
  std::vector<std::string> notes_;
};

// Every error string starts with the name of the check that failed
// ("length", "range", "dense", "modularity", "parity", "answer", "epoch",
// "validate"), so the self-test can tell which check caught a corruption.

/// Length V, dense ids, and the reported modularity within 1e-9 relative of
/// core::modularity on the same graph. Empty string when all hold.
std::string check_partition(const graph::Graph& g, std::span<const cid_t> assignment,
                            double reported_q) {
  const vid_t n = g.num_vertices();
  if (assignment.size() != n) {
    return "length: partition has " + std::to_string(assignment.size()) + " entries for " +
           std::to_string(n) + " vertices";
  }
  std::vector<std::uint8_t> used(n, 0);
  std::size_t k = 0;  // one past the largest id
  for (cid_t c : assignment) {
    if (c >= n) return "range: community id " + std::to_string(c) + " out of range";
    used[c] = 1;
    k = std::max<std::size_t>(k, std::size_t{c} + 1);
  }
  const auto gap = std::find(used.begin(), used.begin() + k, 0);
  if (gap != used.begin() + k) {
    return "dense: community id " + std::to_string(gap - used.begin()) + " unused below " +
           std::to_string(k);
  }
  const double q = core::modularity(g, assignment);
  if (std::abs(q - reported_q) > 1e-9 * std::max(std::abs(q), 1e-12)) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "modularity: reported Q %.12f but modularity() gives %.12f",
                  reported_q, q);
    return buf;
  }
  return {};
}

std::string check_same(std::span<const cid_t> got, std::span<const cid_t> want,
                       const char* what) {
  if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
    return std::string("parity: partition differs from ") + what;
  }
  return {};
}

/// Every answer equals the pinned snapshot's assignment of that vertex.
std::string check_answers(const query::Snapshot& snap, std::span<const vid_t> vertices,
                          std::span<const cid_t> answers) {
  if (answers.size() != vertices.size()) return "answer: count differs from batch size";
  const auto truth = snap.assignment();
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    if (answers[i] != truth[vertices[i]]) {
      return "answer: vertex " + std::to_string(vertices[i]) + " answered " +
             std::to_string(answers[i]) + ", epoch " + std::to_string(snap.epoch()) +
             " holds " + std::to_string(truth[vertices[i]]);
    }
  }
  return {};
}

// ----------------------------------------------------------------- workloads

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--dir") {
      a.dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload != "planted-200k" && a.workload != "rmat-18") {
    throw std::invalid_argument("--workload must be planted-200k or rmat-18");
  }
  if (!have_seed || !have_seconds || !(a.seconds > 0)) {
    throw std::invalid_argument("--seed and a positive --seconds are required");
  }
  return a;
}

/// One input graph of the workload; a pure function of its seed.
graph::Graph generate(const std::string& workload, std::uint64_t seed) {
  if (workload == "rmat-18") {
    graph::RmatParams p;
    p.scale = 18;
    p.edge_factor = 16;
    p.seed = seed;
    return graph::rmat(p);
  }
  graph::PlantedPartitionParams p;
  p.num_vertices = 200000;
  p.num_communities = 2000;
  p.mixing = 0.3;
  p.degree_exponent = 2.5;
  p.avg_degree = 16;
  p.seed = seed;
  return graph::planted_partition(p);
}

constexpr std::size_t kBatchEdges = 1000;     // per ingest epoch, 3:1 insert:remove
constexpr std::size_t kReadBatch = 4096;      // vertices resolved per read
constexpr std::size_t kReadBatches = 16;      // distinct read batches, cycled
constexpr std::size_t kIdleReads = 10000;     // traced reads with no writer
// Each set-up makes its own input graph, and detect operations cycle over
// the inputs, so a run's detect medians average over several graphs rather
// than ride on one graph's iteration count.
constexpr int kSetups = 3;                    // setup_s is their median
constexpr int kProbeRepeats = 3;              // traced layer probes

/// One ingest batch: 750 insertions of random vertex pairs, then 250
/// removals of distinct existing edges (each removed with its full weight).
std::vector<core::EdgeUpdate> make_batch(Xoshiro256& rng, const graph::Graph& g) {
  const vid_t n = g.num_vertices();
  std::vector<core::EdgeUpdate> batch;
  batch.reserve(kBatchEdges);
  while (batch.size() < kBatchEdges * 3 / 4) {
    const auto u = static_cast<vid_t>(rng.next_below(n));
    const auto v = static_cast<vid_t>(rng.next_below(n));
    if (u != v) batch.push_back({u, v, 1.0, false});
  }
  std::set<std::pair<vid_t, vid_t>> removed;
  while (batch.size() < kBatchEdges) {
    const auto u = static_cast<vid_t>(rng.next_below(n));
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    const std::size_t k = rng.next_below(nbrs.size());
    const vid_t v = nbrs[k];
    if (v == u || !removed.insert(std::minmax(u, v)).second) continue;
    batch.push_back({u, v, g.weights(u)[k], true});
  }
  return batch;
}

// --------------------------------------------------------------------- bench

struct Metric {
  double value;
  const char* unit;
};

class Bench {
 public:
  explicit Bench(Args args)
      : args_(std::move(args)), trace_(args_.trace),
        batch_rng_(splitmix64(args_.seed ^ 0x7772697465727321ULL)) {}

  int run();

 private:
  Trace* traced(bool on) { return on && trace_.enabled() ? &trace_ : nullptr; }
  std::uint64_t next_run() { return run_id_.fetch_add(1, std::memory_order_relaxed); }

  void setup();
  void selftest();
  void oracle();
  void probes();
  void detect_ops(int pairs);
  double read(const query::QueryExecutor& executor, Trace* tr, const char* name, int parent);
  void idle_reads();
  void ingest_epochs(int epochs);
  void write_epoch();
  void report_trace();
  void print_metrics(const std::map<std::string, Metric>& metrics) const;

  Args args_;
  Trace trace_;
  Checks checks_;
  std::atomic<std::uint64_t> run_id_{1};
  bool selftest_ok_ = true;

  // Input i is generated from seed * kSetups + i and saved to graph_paths_[i];
  // references_[i] is its set-up solve (BSP, default config). Input 0 stays
  // in memory as g_ for the self-test, the oracle, the probes and ingest.
  std::vector<std::string> graph_paths_;
  std::vector<std::vector<cid_t>> references_;
  graph::Graph g_;
  core::GalaResult reference_;  // set-up solve of g_
  std::unique_ptr<query::CommunityStore> store_;
  double oracle_q_ = 0;

  // Ingest state, carried from round to round.
  graph::Graph live_graph_;
  std::vector<cid_t> live_assignment_;
  Xoshiro256 batch_rng_;
  std::vector<std::vector<vid_t>> read_batches_;
  std::size_t reads_done_ = 0;  // touched by the reader thread only while it runs
  int epochs_done_ = 0;
  int pairs_done_ = 0;

  // Wall and CPU seconds of each operation. Detect CPU times are kept per
  // input graph, since the graphs differ in work.
  std::vector<double> setup_s_, setup_cpu_s_;
  std::vector<double> detect_s_[2];  // [Bsp, Blas], timed (or traced) ops
  std::vector<double> detect_untraced_s_[2];
  std::map<std::size_t, std::vector<double>> detect_cpu_s_[2];
  std::vector<double> detect_untraced_cpu_s_[2];
  std::vector<double> epoch_s_, epoch_untraced_s_;
  std::vector<double> epoch_cpu_s_, epoch_untraced_cpu_s_;
  std::vector<double> read_us_, read_untraced_us_, read_idle_us_;
  double modularity_ratio_ = 0;
  std::map<std::string, Metric> layer_;  // per-layer metrics filled by the trace run
};

void Bench::setup() {
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t seed = args_.seed * kSetups + static_cast<std::uint64_t>(i);
    graph_paths_.push_back(args_.dir + "/" + args_.workload + "-" + std::to_string(seed) +
                           ".bin");
    const std::uint64_t run = next_run();
    graph::Graph g;
    core::GalaResult solved;
    const double cpu0 = cpu_seconds();
    Timed total(traced(true), "setup", -1, run);
    {
      Timed t(traced(true), "graph.generate", total.id(), run);
      g = generate(args_.workload, seed);
    }
    {
      Timed t(traced(true), "graph.save", total.id(), run);
      graph::save_binary(g, graph_paths_.back());
    }
    graph::Graph loaded;
    {
      Timed t(traced(true), "graph.load", total.id(), run);
      loaded = graph::load_binary(graph_paths_.back());
    }
    {
      Timed t(traced(true), "core.run_louvain", total.id(), run);
      solved = core::run_louvain(loaded);
    }
    setup_s_.push_back(total.stop());
    setup_cpu_s_.push_back(cpu_seconds() - cpu0);
    checks_.record("setup solve", check_partition(g, solved.assignment, solved.modularity));
    references_.push_back(solved.assignment);
    if (i == 0) {
      g_ = std::move(g);
      reference_ = std::move(solved);
    }
  }
  // The ingest phase starts from the set-up's solve, published untimed.
  store_ = std::make_unique<query::CommunityStore>();
  store_->publish(g_, reference_);
  live_graph_ = g_;
  live_assignment_ = reference_.assignment;
  Xoshiro256 read_rng(splitmix64(args_.seed ^ 0x7265616465727321ULL));
  read_batches_.assign(kReadBatches, std::vector<vid_t>(kReadBatch));
  for (auto& batch : read_batches_) {
    for (vid_t& v : batch) v = static_cast<vid_t>(read_rng.next_below(g_.num_vertices()));
  }
}

/// Proves the checks are live: each corrupted copy of a real output must
/// fail, and on the check it targets.
void Bench::selftest() {
  int caught = 0, tried = 0;
  auto expect_failure = [&](const std::string& error, const std::string& check) {
    ++tried;
    if (error.rfind(check + ":", 0) == 0) {
      ++caught;
    } else {
      std::printf("self-test: expected a %s failure, got \"%s\"\n", check.c_str(),
                  error.c_str());
    }
  };
  const auto& good = reference_.assignment;
  const double q = reference_.modularity;
  const auto k = static_cast<cid_t>(reference_.num_communities);

  std::vector<cid_t> bad(good.begin(), good.end() - 1);  // one entry short
  expect_failure(check_partition(g_, bad, q), "length");
  bad.assign(good.begin(), good.end());
  bad[0] = std::numeric_limits<cid_t>::max();  // id out of range
  expect_failure(check_partition(g_, bad, q), "range");
  // An id gap with Q unchanged: every member of community 0 moves to the
  // unused id K, so only the dense-id check can catch it.
  bad.assign(good.begin(), good.end());
  std::replace(bad.begin(), bad.end(), cid_t{0}, k);
  expect_failure(check_partition(g_, bad, q), "dense");
  bad.assign(good.begin(), good.end());
  bad[0] = good[0] == good[1] ? good[0] + 1 : good[1];  // moved vertex, stale Q
  if (bad[0] >= k) bad[0] = 0;
  expect_failure(check_partition(g_, bad, q), "modularity");
  expect_failure(check_same(bad, good, "the reference"), "parity");

  const query::SnapshotRef snap = store_->current();
  std::vector<vid_t> vs = {0, 1, 2, 3};
  std::vector<cid_t> answers;
  for (vid_t v : vs) answers.push_back(snap->assignment()[v]);
  if (!check_answers(*snap, vs, answers).empty()) selftest_ok_ = false;  // must pass as is
  answers[2] ^= 1;
  expect_failure(check_answers(*snap, vs, answers), "answer");

  selftest_ok_ = selftest_ok_ && caught == tried;
  std::printf("self-test: %d/%d corrupted outputs counted as failures\n", caught, tried);
}

void Bench::oracle() {
  Timed t(traced(true), "core.oracle", -1, next_run());
  oracle_q_ = core::sequential_louvain(g_).modularity;
}

/// Layer probes on the level-0 graph (the input): each backend's run_level,
/// the serial BSP run_level, the level-0 contraction and apply_edge_updates.
void Bench::probes() {
  const vid_t n = g_.num_vertices();
  core::Phase1Result level0;
  for (core::Backend backend : {core::Backend::Bsp, core::Backend::Blas}) {
    const bool bsp = backend == core::Backend::Bsp;
    const std::string prefix = bsp ? "core.bsp." : "core.blas.";
    std::vector<double> wall, decide, update, other, busy;
    for (int i = 0; i < kProbeRepeats; ++i) {
      const std::unique_ptr<core::LouvainBackend> engine = core::make_backend(backend);
      const double cpu0 = cpu_seconds();
      Timed t(&trace_, bsp ? "core.bsp.run_level" : "core.blas.run_level", -1, next_run());
      core::Phase1Result p = engine->run_level(g_, core::BspConfig{});
      wall.push_back(t.stop());
      busy.push_back((cpu_seconds() - cpu0) / wall.back());
      double d = 0, u = 0, o = 0;
      for (const auto& it : p.iterations) {
        d += it.decide_wall;
        u += it.update_wall;
        o += it.other_wall;
      }
      decide.push_back(d);
      update.push_back(u);
      other.push_back(o);
      if (bsp) level0 = std::move(p);
    }
    layer_[prefix + "run_level_s"] = {median(wall), "s"};
    layer_[prefix + "decide_s"] = {median(decide), "s"};
    layer_[prefix + "weight_update_s"] = {median(update), "s"};
    layer_[prefix + "bookkeeping_s"] = {median(other), "s"};
    if (bsp) layer_["core.cores_busy"] = {median(busy), "cores"};
  }
  {
    core::BspConfig serial;
    serial.parallel = false;
    Timed t(&trace_, "core.bsp.run_level_serial", -1, next_run());
    const core::Phase1Result p = core::make_backend(core::Backend::Bsp)->run_level(g_, serial);
    const double s = t.stop();
    layer_["core.parallel_speedup"] = {s / layer_["core.bsp.run_level_s"].value, "x"};
    checks_.record("serial run_level", check_same(p.community, level0.community,
                                                  "the parallel run_level"));
  }
  double active = 0, moved = 0;
  for (const auto& it : level0.iterations) {
    active += it.active;
    moved += it.moved;
  }
  const double iters = static_cast<double>(level0.iterations.size());
  layer_["core.iterations"] = {iters, "count"};
  layer_["core.levels"] = {static_cast<double>(reference_.levels.size()), "count"};
  layer_["core.active_frac"] = {active / (static_cast<double>(n) * iters), "ratio"};
  layer_["core.move_yield"] = {active > 0 ? moved / active : 0, "ratio"};

  std::vector<double> contract;
  for (int i = 0; i < kProbeRepeats; ++i) {
    const auto engine = core::make_backend(core::Backend::Bsp);
    Timed t(&trace_, "core.contract", -1, next_run());
    engine->contract(g_, level0.community, nullptr);
    contract.push_back(t.stop());
  }
  blas::SpgemmStats stats;
  core::aggregate(g_, level0.community, nullptr, blas::Tuning{}, &stats);
  layer_["core.contract_s"] = {median(contract), "s"};

  // update_communities rebuilds the CSR through apply_edge_updates first;
  // time that step alone on batches like the epochs'. It runs here, not
  // after traced epochs, so that traced and untraced epochs follow the
  // same work and the tracing overhead compares like with like.
  std::vector<double> apply;
  Xoshiro256 probe_rng(splitmix64(args_.seed ^ 0x70726f6265732121ULL));
  for (int i = 0; i < kProbeRepeats; ++i) {
    const std::vector<core::EdgeUpdate> batch = make_batch(probe_rng, g_);
    Timed t(&trace_, "core.apply_edge_updates", -1, next_run());
    core::apply_edge_updates(g_, batch);
    apply.push_back(t.stop());
  }
  layer_["core.apply_edge_updates_s"] = {median(apply), "s"};
  layer_["core.contract_flops"] = {static_cast<double>(stats.flops), "count"};
  layer_["core.contract_nnz"] = {static_cast<double>(stats.nnz), "count"};
}

/// Runs `pairs` pairs of load_binary + run_louvain, BSP then blas, on the
/// next input in turn. Traced,
/// every operation runs twice back to back, traced and untraced in
/// alternating order, so the overhead is measured on the same inputs.
void Bench::detect_ops(int pairs) {
  for (int p = 0; p < pairs; ++p, ++pairs_done_) {
    const std::size_t input = static_cast<std::size_t>(pairs_done_) % graph_paths_.size();
    for (int b = 0; b < 2; ++b) {
      const core::Backend backend = b == 0 ? core::Backend::Bsp : core::Backend::Blas;
      const int passes = trace_.enabled() ? 2 : 1;
      for (int pass = 0; pass < passes; ++pass) {
        const bool tracing = trace_.enabled() && pass == (pairs_done_ + b) % 2;
        Trace* tr = traced(tracing);
        const std::uint64_t run = next_run();
        core::GalaConfig cfg;
        cfg.backend = backend;
        if (tr != nullptr) {
          const std::string key = b == 0 ? "detect.bsp/" : "detect.blas/";
          cfg.bsp.on_iteration = [tr, key](int, const core::IterationStats& s,
                                           std::span<const std::uint8_t>,
                                           std::span<const std::uint8_t>,
                                           std::span<const cid_t>) {
            tr->count(key + "decide_s", s.decide_wall);
            tr->count(key + "weight_update_s", s.update_wall);
            tr->count(key + "bookkeeping_s", s.other_wall);
          };
        }
        graph::Graph g;
        core::GalaResult r;
        const double cpu0 = cpu_seconds();
        Timed total(tr, b == 0 ? "detect.bsp" : "detect.blas", -1, run);
        {
          Timed t(tr, "graph.load", total.id(), run);
          g = graph::load_binary(graph_paths_[input]);
        }
        {
          Timed t(tr, "core.run_louvain", total.id(), run);
          r = core::run_louvain(g, cfg);
        }
        const double s = total.stop();
        const double cpu = cpu_seconds() - cpu0;
        if (tracing || !trace_.enabled()) {
          detect_s_[b].push_back(s);
          detect_cpu_s_[b][input].push_back(cpu);
        } else {
          detect_untraced_s_[b].push_back(s);
          detect_untraced_cpu_s_[b].push_back(cpu);
        }

        std::string error = check_partition(g, r.assignment, r.modularity);
        if (error.empty()) {
          error = check_same(r.assignment, references_[input], "the set-up's BSP partition");
        }
        checks_.record(b == 0 ? "detect bsp" : "detect blas", error);
        if (b == 0 && input == 0) modularity_ratio_ = r.modularity / oracle_q_;
      }
    }
  }
}

/// One read: pin current(), resolve the batch through a default
/// QueryExecutor (the engine's global pool), then check it, untimed.
/// Returns the read's latency in microseconds.
double Bench::read(const query::QueryExecutor& executor, Trace* tr, const char* name,
                   int parent) {
  const std::vector<vid_t>& batch = read_batches_[reads_done_++ % read_batches_.size()];
  const std::uint64_t run = next_run();
  Timed t(tr, name, parent, run);
  const query::SnapshotRef snap = store_->current();
  const std::vector<cid_t> answers = executor.community_of(*snap, batch);
  const double s = t.stop();
  checks_.record("read", check_answers(*snap, batch, answers));
  return s * 1e6;
}

void Bench::idle_reads() {
  const query::QueryExecutor executor(*store_);
  for (std::size_t i = 0; i < kIdleReads; ++i) {
    read_idle_us_.push_back(read(executor, &trace_, "query.read_idle", -1));
  }
}

/// The closed-loop writer (this thread) runs `epochs` epochs: a batch through
/// update_communities, then publish, until current() serves the epoch. One
/// closed-loop reader thread reads for as long. The writer stays on the main
/// thread so the large allocations of every phase share one malloc arena: a
/// writer thread per round would trade arenas with the reader at random,
/// which moves peak RSS by up to 200 MB between identical runs.
void Bench::ingest_epochs(int epochs) {
  std::atomic<bool> writer_done{false};
  std::exception_ptr reader_error;
  std::thread reader([&] {
    try {
      const query::QueryExecutor executor(*store_);
      const int root =
          trace_.enabled() ? trace_.open("query.reader", -1, 0, Clock::now()) : -1;
      while (!writer_done.load(std::memory_order_acquire)) {
        const bool tracing = reads_done_ % 2 == 0;
        const double us = read(executor, traced(tracing), "query.read", root);
        (tracing || !trace_.enabled() ? read_us_ : read_untraced_us_).push_back(us);
      }
      if (root >= 0) trace_.close(root, Clock::now());
    } catch (...) {
      reader_error = std::current_exception();
    }
  });
  try {
    for (int e = 0; e < epochs; ++e) write_epoch();
  } catch (...) {
    writer_done.store(true, std::memory_order_release);
    reader.join();
    throw;
  }
  writer_done.store(true, std::memory_order_release);
  reader.join();
  if (reader_error) std::rethrow_exception(reader_error);
}

void Bench::write_epoch() {
  const std::vector<core::EdgeUpdate> batch = make_batch(batch_rng_, live_graph_);
  const bool tracing = trace_.enabled() && epochs_done_++ % 2 == 0;
  Trace* tr = traced(tracing);
  const std::uint64_t run = next_run();
  core::IncrementalResult inc;
  std::uint64_t epoch = 0;
  // The writer is this thread alone (update_communities and publish use no
  // pool), so its CPU time leaves out the reader running beside it.
  const double cpu0 = thread_cpu_seconds();
  Timed total(tr, "ingest.epoch", -1, run);
  {
    Timed t(tr, "core.update_communities", total.id(), run);
    inc = core::update_communities(live_graph_, live_assignment_, batch);
  }
  {
    Timed t(tr, "query.publish", total.id(), run);
    epoch = store_->publish(inc);
  }
  const query::SnapshotRef served = store_->current();
  const double s = total.stop();
  const double cpu = thread_cpu_seconds() - cpu0;
  (tracing || !trace_.enabled() ? epoch_s_ : epoch_untraced_s_).push_back(s);
  (tracing || !trace_.enabled() ? epoch_cpu_s_ : epoch_untraced_cpu_s_).push_back(cpu);

  std::string error = check_partition(inc.graph, inc.assignment, inc.modularity);
  if (error.empty() && served->epoch() != epoch) error = "epoch: current() is not the new epoch";
  if (error.empty()) {
    const std::string invalid = served->validate();
    if (!invalid.empty()) error = "validate: " + invalid;
  }
  checks_.record("ingest epoch", error);

  if (tr != nullptr) {
    tr->count("core.repair_evaluated", static_cast<double>(inc.evaluated_vertices));
  }
  live_graph_ = std::move(inc.graph);
  live_assignment_ = std::move(inc.assignment);
}

void Bench::print_metrics(const std::map<std::string, Metric>& metrics) const {
  JsonWriter w;
  w.begin_object();
  const bool correct = checks_.failed() == 0 && selftest_ok_;
  w.key("correct").value(correct);
  w.key("attempted").value(checks_.attempted());
  w.key("failed").value(checks_.failed());
  w.key("metrics").begin_object();
  for (const auto& [name, m] : metrics) {
    w.key(name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

int Bench::run() {
  const Clock::time_point start = Clock::now();
  setup();
  selftest();
  oracle();
  if (trace_.enabled()) {
    probes();
    idle_reads();
  }
  // Rounds interleave the two phases, so both sample the same stretch of
  // machine load. One epoch per round leaves most of the run to the detect
  // pairs, whose CPU times vary most. --seconds bounds the whole run,
  // set-up included: a round starts only if one as long as the last still
  // fits. At least one round runs per input graph, so every input has a
  // detect time.
  const int min_rounds = kSetups;
  double round_s = 0;
  for (int rounds = 0; rounds < min_rounds || since(start) + round_s <= args_.seconds;
       ++rounds) {
    const Clock::time_point t0 = Clock::now();
    detect_ops(1);
    ingest_epochs(1);
    round_s = since(t0);
  }
  layer_["query.resident_mb"] = {static_cast<double>(store_->resident_bytes()) / 1e6, "MB"};
  for (const std::string& path : graph_paths_) std::remove(path.c_str());

  // The gated times are CPU seconds: a busy stretch of the host moves wall
  // times further than any bound the benchmark may set (see README.md).
  std::map<std::string, Metric> e2e = {
      {"setup_s", {median(setup_cpu_s_), "s"}},
      {"detect_cpu_s", {mean_of_medians(detect_cpu_s_[0]), "s"}},
      {"detect_blas_cpu_s", {mean_of_medians(detect_cpu_s_[1]), "s"}},
      {"modularity_ratio", {modularity_ratio_, "ratio"}},
      {"ingest_epoch_cpu_s", {median(epoch_cpu_s_), "s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
  };
  // The wall times and the reader's latencies are reported with the
  // per-layer metrics, not gated, for the same reason.
  layer_["setup_wall_s"] = {median(setup_s_), "s"};
  layer_["detect_s"] = {median(detect_s_[0]), "s"};
  layer_["detect_blas_s"] = {median(detect_s_[1]), "s"};
  layer_["ingest_epoch_s"] = {median(epoch_s_), "s"};
  layer_["read_p50_us"] = {quantile(read_us_, 0.5), "us"};
  layer_["read_p999_us"] = {quantile(read_us_, 0.999), "us"};
  std::printf("workload %s seed %llu: %zu setups, %zu+%zu detect ops, %zu epochs, %zu reads\n",
              args_.workload.c_str(), static_cast<unsigned long long>(args_.seed),
              setup_s_.size(), detect_s_[0].size() + detect_untraced_s_[0].size(),
              detect_s_[1].size() + detect_untraced_s_[1].size(),
              epoch_s_.size() + epoch_untraced_s_.size(),
              read_us_.size() + read_untraced_us_.size());
  for (const auto& [name, m] : e2e) std::printf("  %-22s %14.6f %s\n", name.c_str(), m.value, m.unit);
  for (const char* name :
       {"setup_wall_s", "detect_s", "detect_blas_s", "ingest_epoch_s", "read_p50_us",
        "read_p999_us"}) {
    std::printf("  %-22s %14.6f %s (wall)\n", name, layer_[name].value, layer_[name].unit);
  }
  const double attempted = static_cast<double>(checks_.attempted());
  std::printf("  %-22s %14.6f ratio (%llu failed of %llu attempted)\n", "error_rate",
              attempted > 0 ? static_cast<double>(checks_.failed()) / attempted : 0.0,
              static_cast<unsigned long long>(checks_.failed()),
              static_cast<unsigned long long>(checks_.attempted()));
  for (const std::string& note : checks_.notes()) std::printf("  check failed: %s\n", note.c_str());

  if (trace_.enabled()) {
    report_trace();
    print_metrics(layer_);
  } else {
    print_metrics(e2e);
  }
  return 0;
}

void Bench::report_trace() {
  auto span_median = [&](const char* name) { return median(trace_.durations(name)); };
  layer_["graph.load_s"] = {span_median("graph.load"), "s"};
  layer_["core.oracle_s"] = {span_median("core.oracle"), "s"};
  layer_["core.update_communities_s"] = {span_median("core.update_communities"), "s"};
  layer_["query.publish_s"] = {span_median("query.publish"), "s"};
  const double traced_epochs = static_cast<double>(trace_.durations("ingest.epoch").size());
  layer_["core.repair_evaluated"] = {trace_.count_of("core.repair_evaluated") / traced_epochs,
                                     "count"};
  layer_["query.read_idle_p50_us"] = {quantile(read_idle_us_, 0.5), "us"};
  layer_["query.read_idle_p999_us"] = {quantile(read_idle_us_, 0.999), "us"};

  // Self time of every span, then each end-to-end operation's time split by
  // the self time of the spans under it. An operation's own self time is
  // harness time between its layer calls. Reads hang off one reader span
  // per round; each read is its own operation.
  const std::vector<Span>& spans = trace_.spans();
  const std::vector<double> self = trace_.self_seconds();
  std::map<std::string, double> self_by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end >= 0) self_by_name[spans[i].name] += self[i];
  }
  const std::set<std::string> operations = {"setup", "detect.bsp", "detect.blas", "ingest.epoch",
                                            "query.read"};
  std::map<std::string, double> op_total;
  std::map<std::string, std::map<std::string, double>> op_layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end < 0) continue;
    if (operations.count(s.name) != 0) {
      op_total[s.name] += s.end - s.start;
      op_layers[s.name][s.name + std::string(" (self)")] += self[i];
    } else if (s.parent >= 0 && operations.count(spans[static_cast<std::size_t>(s.parent)].name)) {
      op_layers[spans[static_cast<std::size_t>(s.parent)].name][s.name] += self[i];
    }
  }

  std::printf("trace: %zu spans\n  self time by span:\n", spans.size());
  for (const auto& [name, s] : self_by_name) std::printf("    %-28s %10.4f s\n", name.c_str(), s);
  std::printf("  share of each end-to-end operation's time by layer (self time):\n");
  std::map<std::string, std::map<std::string, double>> shares;
  for (const auto& [op, layers] : op_layers) {
    const double total = op_total[op];
    std::printf("    %s (%.4f s over %zu ops)\n", op.c_str(), total, trace_.durations(op).size());
    for (const auto& [layer, s] : layers) {
      shares[op][layer] = s / total;
      std::printf("      %-28s %6.2f%%\n", layer.c_str(), 100 * s / total);
    }
  }
  // core.run_louvain's own split, from the per-iteration walls the engine
  // hands its on_iteration hook (all levels of every traced op).
  for (const char* op : {"detect.bsp", "detect.blas"}) {
    const double louvain = op_layers[op]["core.run_louvain"];
    if (louvain <= 0) continue;
    std::printf("    %s core.run_louvain split:", op);
    double covered = 0;
    for (const char* part : {"decide_s", "weight_update_s", "bookkeeping_s"}) {
      const double s = trace_.count_of(std::string(op) + "/" + part);
      covered += s;
      shares[op][std::string("core.run_louvain.") + part] = s / op_total[op];
      std::printf(" %s %.1f%%", part, 100 * s / louvain);
    }
    std::printf(" rest (contraction, engine set-up) %.1f%%\n", 100 * (louvain - covered) / louvain);
  }

  // Overhead: traced minus untraced median of the same operations.
  std::map<std::string, std::pair<double, double>> overhead = {
      {"detect_cpu_s", {median(flatten(detect_cpu_s_[0])), median(detect_untraced_cpu_s_[0])}},
      {"detect_blas_cpu_s",
       {median(flatten(detect_cpu_s_[1])), median(detect_untraced_cpu_s_[1])}},
      {"ingest_epoch_cpu_s", {median(epoch_cpu_s_), median(epoch_untraced_cpu_s_)}},
      {"detect_s", {median(detect_s_[0]), median(detect_untraced_s_[0])}},
      {"detect_blas_s", {median(detect_s_[1]), median(detect_untraced_s_[1])}},
      {"ingest_epoch_s", {median(epoch_s_), median(epoch_untraced_s_)}},
      {"read_p50_us", {quantile(read_us_, 0.5), quantile(read_untraced_us_, 0.5)}},
  };
  std::printf("  tracing overhead (traced - untraced median):\n");
  for (const auto& [name, tu] : overhead) {
    std::printf("    %-16s %+.6f (%+.2f%%)\n", name.c_str(), tu.first - tu.second,
                tu.second > 0 ? 100 * (tu.first - tu.second) / tu.second : 0.0);
  }

  JsonWriter w;
  w.begin_object();
  w.key("workload").value(args_.workload);
  w.key("seed").value(args_.seed);
  w.key("spans").begin_array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("start").value(s.start);
    w.key("end").value(s.end);
    w.key("parent").value(s.parent);
    w.key("run").value(s.run);
    w.key("self").value(self[i]);
    w.end_object();
  }
  w.end_array();
  w.key("counts").begin_object();
  for (const auto& [name, v] : trace_.counts()) w.key(name).value(v);
  w.end_object();
  w.key("self_seconds").begin_object();
  for (const auto& [name, v] : self_by_name) w.key(name).value(v);
  w.end_object();
  w.key("shares").begin_object();
  for (const auto& [op, layers] : shares) {
    w.key(op).begin_object();
    for (const auto& [layer, v] : layers) w.key(layer).value(v);
    w.end_object();
  }
  w.end_object();
  w.key("overhead_s").begin_object();
  for (const auto& [name, tu] : overhead) w.key(name).value(tu.first - tu.second);
  w.end_object();
  w.key("per_layer").begin_object();
  for (const auto& [name, m] : layer_) w.key(name).value(m.value);
  w.end_object();
  w.end_object();
  const std::string path =
      args_.dir + "/trace-" + args_.workload + "-" + std::to_string(args_.seed) + ".json";
  std::ofstream(path) << w.str() << '\n';
  std::printf("  spans written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Bench bench(parse_args(argc, argv));
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 1;
  }
}
