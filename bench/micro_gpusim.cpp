// Microbenchmarks (google-benchmark) for the simulator substrate: warp
// collectives, the coalescing and bank-conflict diagnostics, hashtable
// policies, and the two DecideAndMove kernels on a single vertex of
// parameterised degree. These measure host wall time of the simulation
// itself (useful for keeping the harness fast), not modeled GPU time.
#include <benchmark/benchmark.h>

#include "gala/core/kernels.hpp"
#include "gala/gpusim/shared_memory.hpp"
#include "gala/gpusim/warp.hpp"
#include "gala/graph/generators.hpp"

namespace {

using namespace gala;
using namespace gala::gpusim;

void BM_WarpMatchAny(benchmark::State& state) {
  WarpValues<cid_t> values{};
  Xoshiro256 rng(1);
  for (auto& v : values) v = static_cast<cid_t>(rng.next_below(static_cast<std::uint64_t>(state.range(0))));
  MemoryStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(warp::match_any(kFullMask, values, stats));
  }
}
BENCHMARK(BM_WarpMatchAny)->Arg(2)->Arg(8)->Arg(32);

void BM_WarpSegmentedReduce(benchmark::State& state) {
  WarpValues<cid_t> keys{};
  WarpValues<wt_t> vals{};
  Xoshiro256 rng(2);
  for (int i = 0; i < kWarpSize; ++i) {
    keys[i] = static_cast<cid_t>(rng.next_below(static_cast<std::uint64_t>(state.range(0))));
    vals[i] = rng.next_double();
  }
  MemoryStats stats;
  const auto masks = warp::match_any(kFullMask, keys, stats);
  for (auto _ : state) {
    benchmark::DoNotOptimize(warp::segmented_reduce_add(kFullMask, masks, vals, stats));
  }
}
BENCHMARK(BM_WarpSegmentedReduce)->Arg(2)->Arg(8)->Arg(32);

/// Arg 0: one ascending CSR-like row (the shuffle kernel's C[u] gather);
/// arg 1: every lane in a random segment, the scan's worst case.
void BM_WarpGatherTransactions(benchmark::State& state) {
  WarpValues<vid_t> addrs{};
  Xoshiro256 rng(3);
  vid_t next = 0;
  for (auto& a : addrs) {
    a = state.range(0) == 0 ? next : static_cast<vid_t>(rng.next_below(1u << 24));
    next += static_cast<vid_t>(1 + rng.next_below(40));
  }
  MemoryStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(warp::gather_transactions(kFullMask, addrs, stats));
  }
}
BENCHMARK(BM_WarpGatherTransactions)->Arg(0)->Arg(1);

/// 256 strided upserts into a shared bucket array of `range` words, as the
/// hash kernel feeds the bank model, then the closing flush.
void BM_BankConflictModel(benchmark::State& state) {
  std::vector<std::uint64_t> words(256);
  Xoshiro256 rng(4);
  for (auto& w : words) w = rng.next_below(static_cast<std::uint64_t>(state.range(0)));
  MemoryStats stats;
  for (auto _ : state) {
    BankConflictModel model(stats);
    for (const std::uint64_t w : words) model.observe_word(w);
    model.flush();
    benchmark::DoNotOptimize(stats.shared_waves);
  }
}
BENCHMARK(BM_BankConflictModel)->Arg(64)->Arg(4096);

struct KernelFixtureState {
  graph::Graph g;
  std::vector<cid_t> comm;
  std::vector<wt_t> comm_total;

  explicit KernelFixtureState(vid_t degree_target) {
    // A star-of-communities vertex: vertex 0 has `degree_target` neighbours
    // spread over ~degree/4 communities.
    graph::GraphBuilder b(degree_target + 1);
    for (vid_t i = 1; i <= degree_target; ++i) b.add_edge(0, i);
    g = b.build();
    comm.resize(g.num_vertices());
    for (vid_t v = 0; v < g.num_vertices(); ++v) comm[v] = v == 0 ? 0 : 1 + (v % std::max<vid_t>(1, degree_target / 4));
    comm_total.assign(g.num_vertices(), 0);
    for (vid_t v = 0; v < g.num_vertices(); ++v) comm_total[comm[v]] += g.degree(v);
  }
};

void BM_ShuffleDecide(benchmark::State& state) {
  KernelFixtureState fx(static_cast<vid_t>(state.range(0)));
  const core::DecideInput input{&fx.g, fx.comm, fx.comm_total, fx.g.two_m()};
  SharedMemoryArena arena(48 * 1024);
  MemoryStats stats;
  for (auto _ : state) {
    arena.reset();
    benchmark::DoNotOptimize(core::shuffle_decide(input, 0, arena, stats));
  }
}
BENCHMARK(BM_ShuffleDecide)->Arg(4)->Arg(8)->Arg(16)->Arg(31)->Arg(256);

void BM_HashDecide(benchmark::State& state) {
  KernelFixtureState fx(static_cast<vid_t>(state.range(0)));
  const core::DecideInput input{&fx.g, fx.comm, fx.comm_total, fx.g.two_m()};
  SharedMemoryArena arena(48 * 1024);
  core::HashScratch scratch;
  MemoryStats stats;
  const auto policy = static_cast<core::HashTablePolicy>(state.range(1));
  for (auto _ : state) {
    arena.reset();
    benchmark::DoNotOptimize(core::hash_decide(input, 0, policy, arena, scratch, 7, stats));
  }
}
BENCHMARK(BM_HashDecide)
    ->Args({31, 0})
    ->Args({31, 2})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({2048, 0})
    ->Args({2048, 1})
    ->Args({2048, 2});

}  // namespace

BENCHMARK_MAIN();
