#include "gala/blas/spmv.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <optional>

#include "gala/common/error.hpp"
#include "gala/exec/workspace.hpp"

namespace gala::blas {
namespace {

/// Rows per simulated block. Pull blocks cover contiguous row ranges; push
/// blocks cover contiguous frontier slices.
constexpr std::size_t kRowsPerBlock = 128;

/// SPA mark slabs are checked out at their full power-of-two size class so
/// the all-zeros invariant covers the whole slab: a later, larger checkout
/// that lands in the same class can still trust recycled_same_tag.
std::size_t mark_capacity(std::size_t n) { return std::bit_ceil(std::max<std::size_t>(n, 64)); }

/// Block-local SPA, checked out of the launch workspace (tag-affine
/// recycling keeps the steady state allocation-free). The mark slab keeps an
/// all-zeros-on-release invariant — every row clears exactly what it
/// touched — so a same-tag recycled slab skips re-initialisation.
struct Spa {
  exec::Workspace::Lease<wt_t> vals;
  exec::Workspace::Lease<std::uint8_t> marks;
  exec::Workspace::Lease<cid_t> touched;

  Spa(exec::Workspace& ws, std::size_t n, std::size_t touched_cap)
      : vals(ws.take<wt_t>(n, "blas.spa_vals")),
        marks(ws.take<std::uint8_t>(mark_capacity(n), "blas.spa_marks")),
        touched(ws.take<cid_t>(touched_cap, "blas.spa_touched")) {
    if (!marks.recycled_same_tag()) std::memset(marks.data(), 0, marks.span().size());
  }
};

}  // namespace

GatherStats masked_gather(const graph::Graph& g, std::span<const cid_t> comm,
                          std::span<const std::uint8_t> mask, std::span<const vid_t> frontier,
                          Direction dir, const gpusim::Device& device, ThreadPool& pool,
                          const RowVisitor& visit, std::string_view kernel_name) {
  const vid_t n = g.num_vertices();
  GALA_CHECK(comm.size() == n, "masked_gather: community map size mismatch");
  if (dir == Direction::Pull) {
    GALA_CHECK(mask.size() == n, "masked_gather: mask size mismatch");
  }

  GatherStats out;
  out.direction = dir;

  const std::size_t touched_cap = std::max<std::size_t>(g.max_out_degree(), 1);

  // One row through the SPA: accumulate in adjacency encounter order (the
  // BSP hash kernel's upsert order — bit-identical sums), visit, then
  // restore the marks invariant by clearing only touched slots.
  const auto gather_row = [&](vid_t v, Spa& spa, gpusim::MemoryStats& stats) {
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    wt_t* vals = spa.vals.data();
    std::uint8_t* marks = spa.marks.data();
    cid_t* touched = spa.touched.data();
    std::size_t tc = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vid_t u = nbrs[i];
      stats.global_reads += 3;  // neighbour id, weight, comm[u]
      if (u == v) continue;     // self-loops cancel out of every comparison
      const cid_t c = comm[u];
      if (!marks[c]) {
        marks[c] = 1;
        vals[c] = ws[i];
        touched[tc++] = c;
      } else {
        vals[c] += ws[i];
      }
      stats.global_atomics += 1;  // SPA accumulate
    }
    visit(v, std::span<const cid_t>(touched, tc), vals, stats);
    for (std::size_t j = 0; j < tc; ++j) marks[touched[j]] = 0;
    stats.global_writes += tc;  // SPA reset of the touched slots
  };

  const auto launch = [&](std::size_t count, const auto& body) {
    const std::size_t blocks = (count + kRowsPerBlock - 1) / kRowsPerBlock;
    if (blocks == 0) return gpusim::LaunchStats{};
    return device.launch(pool, blocks, body, kernel_name);
  };

  if (dir == Direction::Pull) {
    // Pull: stream every row, test the mask inline — no frontier is ever
    // materialised. The SPA checkout is deferred until the block's range
    // proves to hold an active row, so all-pruned ranges cost only the scan.
    std::atomic<std::uint64_t> rows{0};
    out.launch = launch(n, [&](gpusim::BlockContext& ctx) {
      const std::size_t lo = ctx.block_id * kRowsPerBlock;
      const std::size_t hi = std::min<std::size_t>(n, lo + kRowsPerBlock);
      std::optional<Spa> spa;
      std::uint64_t evaluated = 0;
      for (std::size_t v = lo; v < hi; ++v) {
        ctx.stats->global_reads += 1;  // mask load
        if (!mask[v]) continue;
        if (!spa) spa.emplace(ctx.workspace, n, touched_cap);
        gather_row(static_cast<vid_t>(v), *spa, *ctx.stats);
        ++evaluated;
      }
      rows.fetch_add(evaluated, std::memory_order_relaxed);
    });
    out.rows = rows.load(std::memory_order_relaxed);
  } else {
    // Push: the frontier is already compacted; blocks stride over it.
    out.rows = frontier.size();
    out.launch = launch(frontier.size(), [&](gpusim::BlockContext& ctx) {
      const std::size_t lo = ctx.block_id * kRowsPerBlock;
      const std::size_t hi = std::min(frontier.size(), lo + kRowsPerBlock);
      if (lo >= hi) return;
      Spa spa(ctx.workspace, n, touched_cap);
      for (std::size_t i = lo; i < hi; ++i) {
        ctx.stats->global_reads += 1;  // frontier entry load
        gather_row(frontier[i], spa, *ctx.stats);
      }
    });
  }
  return out;
}

GatherStats masked_dot(const graph::Graph& g, std::span<const cid_t> comm,
                       std::span<const std::uint8_t> mask, std::span<wt_t> out,
                       const gpusim::Device& device, ThreadPool& pool,
                       std::string_view kernel_name) {
  const vid_t n = g.num_vertices();
  GALA_CHECK(comm.size() == n && mask.size() == n && out.size() == n,
             "masked_dot: size mismatch");
  GatherStats result;
  const std::size_t blocks = (n + kRowsPerBlock - 1) / kRowsPerBlock;
  if (blocks == 0) return result;
  std::atomic<std::uint64_t> rows{0};
  result.launch = device.launch(
      pool, blocks,
      [&](gpusim::BlockContext& ctx) {
        const std::size_t lo = ctx.block_id * kRowsPerBlock;
        const std::size_t hi = std::min<std::size_t>(n, lo + kRowsPerBlock);
        gpusim::MemoryStats& stats = *ctx.stats;
        std::uint64_t evaluated = 0;
        for (std::size_t v = lo; v < hi; ++v) {
          stats.global_reads += 1;  // mask load
          if (!mask[v]) continue;
          const cid_t c = comm[v];
          const auto nbrs = g.neighbors(static_cast<vid_t>(v));
          const auto ws = g.weights(static_cast<vid_t>(v));
          wt_t sum = 0;
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            if (nbrs[i] != v && comm[nbrs[i]] == c) sum += ws[i];
          }
          out[v] = sum;
          stats.global_reads += 1 + 3 * nbrs.size();  // comm[v]; id, weight, comm[u]
          stats.register_ops += nbrs.size();           // column test
          stats.global_writes += 1;
          ++evaluated;
        }
        rows.fetch_add(evaluated, std::memory_order_relaxed);
      },
      kernel_name);
  result.rows = rows.load(std::memory_order_relaxed);
  return result;
}

}  // namespace gala::blas
