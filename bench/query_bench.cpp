// QPS / latency-percentile harness for the gala::query serving layer.
//
// Publishes a deterministic epoch stream (one full Louvain run plus seven
// incremental repairs) into a CommunityStore, then drives four read
// workloads — point lookups, batched lookups through the thread pool,
// member scans + top-k, and cross-epoch diffs — and reports throughput and
// p50/p95/p99 latency for each.
//
// Determinism contract (the perf-diff gate's input): every op count, epoch
// count, resident-byte figure, and answer checksum is a pure function of
// the seeds below, so those fields baseline bit-identically. Only the
// wall_* fields (QPS, latency percentiles) vary by machine, and
// gala_perf_diff skips wall-prefixed keys.
//
// Run with:
//   GALA_BENCH_JSON_DIR=<dir> ./query_bench
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "gala/common/prng.hpp"
#include "gala/common/thread_pool.hpp"
#include "gala/core/gala.hpp"
#include "gala/core/incremental.hpp"
#include "gala/graph/generators.hpp"
#include "gala/query/executor.hpp"
#include "gala/query/store.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Percentile over an unsorted latency sample (sorts in place).
double pct(std::vector<double>& lat, double p) {
  if (lat.empty()) return 0;
  std::sort(lat.begin(), lat.end());
  const auto idx = static_cast<std::size_t>(p / 100.0 * static_cast<double>(lat.size() - 1));
  return lat[idx];
}

}  // namespace

int main() {
  using namespace gala;
  bench::print_header("gala::query serving throughput and tail latency",
                      "query-serving perf gate (no paper figure)", 1.0);
  bench::JsonRecord rec("query_bench", 1.0);

  // --- deterministic epoch stream -----------------------------------------
  graph::PlantedPartitionParams pp;
  pp.num_vertices = 4000;
  pp.num_communities = 25;
  pp.avg_degree = 14.0;
  pp.mixing = 0.25;
  pp.seed = 11;
  const graph::Graph base = graph::planted_partition(pp);

  query::StoreOptions opts;
  opts.max_retained = 8;
  query::CommunityStore store(opts);

  const auto initial = core::run_louvain(base);
  store.publish(base, initial);
  graph::Graph current = base;
  std::vector<cid_t> assignment = initial.assignment;
  constexpr int kEpochs = 8;
  for (int e = 1; e < kEpochs; ++e) {
    std::vector<core::EdgeUpdate> batch;
    for (int i = 0; i < 6; ++i) {
      const auto u = static_cast<vid_t>(splitmix64(1000ull * e + i) % current.num_vertices());
      const auto v = static_cast<vid_t>(splitmix64(2000ull * e + i) % current.num_vertices());
      batch.push_back({u, v, 1.5, false});
    }
    auto repaired = core::update_communities(current, assignment, batch);
    store.publish(repaired);
    current = std::move(repaired.graph);
    assignment = std::move(repaired.assignment);
  }
  std::printf("stream: %llu epochs published, %zu retained, %llu B resident\n",
              static_cast<unsigned long long>(store.latest_epoch()), store.retained(),
              static_cast<unsigned long long>(store.resident_bytes()));

  ThreadPool pool;
  const query::QueryExecutor exec(store, nullptr, /*grain=*/1u << 20);  // inline
  const query::QueryExecutor pooled(store, &pool, /*grain=*/1024);

  // --- workload 1: point lookups against the newest epoch -----------------
  {
    constexpr std::uint64_t kOps = 50000;
    std::vector<double> lat;
    lat.reserve(kOps);
    std::uint64_t checksum = 0;
    const auto begin = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const auto v = static_cast<vid_t>(splitmix64(i ^ 0x51ed2701ull) % pp.num_vertices);
      const auto t0 = Clock::now();
      checksum += exec.community_of(v);
      lat.push_back(to_us(Clock::now() - t0));
    }
    const double total_s = to_us(Clock::now() - begin) / 1e6;
    const double qps = static_cast<double>(kOps) / total_s;
    std::printf("%-14s %8llu ops, %10.0f QPS, p50 %.2f us, p95 %.2f us, p99 %.2f us\n",
                "point", static_cast<unsigned long long>(kOps), qps, pct(lat, 50), pct(lat, 95),
                pct(lat, 99));
    rec.row()
        .field("workload", "point")
        .field("ops", kOps)
        .field("epochs", store.latest_epoch())
        .field("retained", static_cast<std::uint64_t>(store.retained()))
        .field("snapshot_bytes", store.resident_bytes())
        .field("checksum", checksum)
        .field("wall_qps", qps)
        .field("wall_p50_us", pct(lat, 50))
        .field("wall_p95_us", pct(lat, 95))
        .field("wall_p99_us", pct(lat, 99));
  }

  // --- workload 2: batched lookups through the thread pool ----------------
  {
    constexpr std::size_t kBatch = 4096;
    constexpr int kBatches = 64;
    std::vector<vid_t> queries(kBatch);
    std::vector<double> lat;
    lat.reserve(kBatches);
    std::uint64_t checksum = 0;
    query::SnapshotRef snap = store.current();
    const auto begin = Clock::now();
    for (int b = 0; b < kBatches; ++b) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        queries[i] = static_cast<vid_t>(splitmix64(b * kBatch + i) % pp.num_vertices);
      }
      const auto t0 = Clock::now();
      const auto owners = pooled.community_of(*snap, queries);
      lat.push_back(to_us(Clock::now() - t0));
      for (cid_t c : owners) checksum += c;
    }
    const double total_s = to_us(Clock::now() - begin) / 1e6;
    const double qps = static_cast<double>(kBatch) * kBatches / total_s;
    std::printf("%-14s %8zu ops, %10.0f QPS, p50 %.2f us, p95 %.2f us, p99 %.2f us (batch)\n",
                "batch", kBatch * kBatches, qps, pct(lat, 50), pct(lat, 95), pct(lat, 99));
    rec.row()
        .field("workload", "batch")
        .field("ops", static_cast<std::uint64_t>(kBatch) * kBatches)
        .field("batch_size", static_cast<std::uint64_t>(kBatch))
        .field("snapshot_bytes", store.resident_bytes())
        .field("checksum", checksum)
        .field("wall_qps", qps)
        .field("wall_p50_us", pct(lat, 50))
        .field("wall_p95_us", pct(lat, 95))
        .field("wall_p99_us", pct(lat, 99));
  }

  // --- workload 3: member scans + top-k ------------------------------------
  {
    constexpr std::uint64_t kOps = 4000;
    std::vector<double> lat;
    lat.reserve(kOps);
    std::uint64_t members_seen = 0, checksum = 0;
    query::SnapshotRef snap = store.current();
    const cid_t k = snap->num_communities();
    const auto begin = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const auto c = static_cast<cid_t>(splitmix64(i ^ 0xabcdef12ull) % k);
      const auto t0 = Clock::now();
      const auto row = exec.members(*snap, c);
      lat.push_back(to_us(Clock::now() - t0));
      members_seen += row.size();
      checksum += row.empty() ? 0 : row.front() + row.back();
    }
    const auto top = exec.top_k(*snap, 10);
    for (const auto& t : top) checksum += t.community + t.size;
    const double total_s = to_us(Clock::now() - begin) / 1e6;
    const double qps = static_cast<double>(kOps) / total_s;
    std::printf("%-14s %8llu ops, %10.0f QPS, p50 %.2f us, p99 %.2f us, %llu members\n",
                "members", static_cast<unsigned long long>(kOps), qps, pct(lat, 50),
                pct(lat, 99), static_cast<unsigned long long>(members_seen));
    rec.row()
        .field("workload", "members")
        .field("ops", kOps)
        .field("members_seen", members_seen)
        .field("top_k", static_cast<std::uint64_t>(top.size()))
        .field("checksum", checksum)
        .field("wall_qps", qps)
        .field("wall_p50_us", pct(lat, 50))
        .field("wall_p95_us", pct(lat, 95))
        .field("wall_p99_us", pct(lat, 99));
  }

  // --- workload 4: cross-epoch diffs over every retained pair --------------
  {
    std::vector<double> lat;
    std::uint64_t moved_total = 0, pairs = 0;
    const auto begin = Clock::now();
    for (std::uint64_t i = store.oldest_epoch(); i <= store.latest_epoch(); ++i) {
      for (std::uint64_t j = i + 1; j <= store.latest_epoch(); ++j) {
        const auto t0 = Clock::now();
        const auto d = pooled.diff(i, j);
        lat.push_back(to_us(Clock::now() - t0));
        moved_total += d.moved.size();
        ++pairs;
      }
    }
    const double total_s = to_us(Clock::now() - begin) / 1e6;
    const double qps = static_cast<double>(pairs) / total_s;
    std::printf("%-14s %8llu ops, %10.0f QPS, p50 %.2f us, p99 %.2f us, %llu moved\n",
                "diff", static_cast<unsigned long long>(pairs), qps, pct(lat, 50), pct(lat, 99),
                static_cast<unsigned long long>(moved_total));
    rec.row()
        .field("workload", "diff")
        .field("ops", pairs)
        .field("moved_total", moved_total)
        .field("wall_qps", qps)
        .field("wall_p50_us", pct(lat, 50))
        .field("wall_p95_us", pct(lat, 95))
        .field("wall_p99_us", pct(lat, 99));
  }

  rec.save();
  return 0;
}
