#include "gala/blas/spgemm.hpp"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "gala/common/error.hpp"
#include "gala/gpusim/device.hpp"
#include "gala/scope/run_scope.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::blas {
namespace {

/// Pooled-or-heap scratch: a lease when a workspace is given (tag-affine
/// recycling across levels), a plain vector otherwise (the incremental
/// repair path contracts without a workspace). Results are identical.
template <typename T>
struct Scratch {
  exec::Workspace::Lease<T> lease;
  std::vector<T> heap;
  std::span<T> span;

  Scratch(exec::Workspace* ws, std::size_t count, std::string_view tag) {
    if (ws != nullptr) {
      lease = ws->take<T>(count, tag);
      span = lease.span();
    } else {
      heap.resize(count);
      span = heap;
    }
  }
  T* data() { return span.data(); }
  T& operator[](std::size_t i) { return span[i]; }
};

/// One range of coarse rows and what its accumulation produced: each row's
/// above-diagonal entries, row after row, each row in its accumulator's
/// order (first touch for the SPA, ascending for the sorted merge).
struct RowRange {
  vid_t lo = 0;
  vid_t hi = 0;
  std::vector<cid_t> cols;
  std::vector<wt_t> vals;
  std::uint64_t flops = 0;
  gpusim::MemoryStats traffic;
};

/// Splits the rows into about `parts` ranges of equal candidate work
/// (Σ member out-degree), so one hub community does not serialise a chunk.
std::vector<RowRange> split_rows(std::span<const eid_t> work, std::size_t parts) {
  eid_t total = 0;
  for (const eid_t w : work) total += w;
  std::vector<RowRange> ranges;
  const auto rows = static_cast<vid_t>(work.size());
  eid_t acc = 0;
  RowRange current;
  for (vid_t c = 0; c < rows; ++c) {
    acc += work[c];
    const bool cut = total > 0 && acc * parts >= total * (ranges.size() + 1);
    if (cut || c + 1 == rows) {
      current.hi = c + 1;
      ranges.push_back(std::move(current));
      current = RowRange{};
      current.lo = c + 1;
    }
  }
  return ranges;
}

}  // namespace

graph::Graph contract_csr(const graph::Graph& fine, std::span<const cid_t> fine_to_coarse,
                          vid_t num_coarse, exec::Workspace* ws, const Tuning& tuning,
                          SpgemmStats* stats, ThreadPool* pool) {
  const vid_t n = fine.num_vertices();
  GALA_CHECK(fine_to_coarse.size() == n, "contract_csr: community map size mismatch");

  SpgemmStats local;
  SpgemmStats& st = stats != nullptr ? *stats : local;
  st = SpgemmStats{};
  st.accumulator = tuning.accumulator;
  if (RunScope::current().governor().force_sorted_accumulator() &&
      st.accumulator == Accumulator::Spa) {
    st.accumulator = Accumulator::Sorted;
    st.governor_forced = true;
  }
  st.rows = num_coarse;

  telemetry::ScopedSpan span(RunScope::current().tracer(), "spgemm", "blas");

  if (num_coarse == 0) {
    return graph::GraphBuilder::from_sorted_csr(0, std::vector<eid_t>{0}, {}, {});
  }

  // S^T as a CSC of the membership map, by counting sort: members of each
  // coarse row, ascending fine id — the canonical enumeration order that
  // fixes every output entry's summation order.
  Scratch<eid_t> starts(ws, static_cast<std::size_t>(num_coarse) + 1, "blas.spgemm.starts");
  Scratch<vid_t> members(ws, n, "blas.spgemm.members");
  std::fill(starts.span.begin(), starts.span.end(), 0);
  for (vid_t v = 0; v < n; ++v) {
    GALA_CHECK(fine_to_coarse[v] < num_coarse, "contract_csr: community id out of range");
    ++starts[fine_to_coarse[v] + 1];
  }
  for (vid_t c = 0; c < num_coarse; ++c) starts[c + 1] += starts[c];
  {
    Scratch<eid_t> cursor(ws, num_coarse, "blas.spgemm.cursor");
    std::copy(starts.span.begin(), starts.span.end() - 1, cursor.span.begin());
    for (vid_t v = 0; v < n; ++v) members[cursor[fine_to_coarse[v]]++] = v;
  }
  st.traffic.global_reads += n;   // community-map scan
  st.traffic.global_writes += n;  // member scatter

  // Per-row output shape, written by the row's range: its above-diagonal
  // count, and its diagonal sum with a flag for whether it has one. The
  // counts later become the upper-half scatter cursors.
  Scratch<eid_t> upper(ws, num_coarse, "blas.spgemm.upper");
  Scratch<wt_t> diag(ws, num_coarse, "blas.spgemm.diag");
  Scratch<std::uint8_t> has_diag(ws, num_coarse, "blas.spgemm.has_diag");

  // A row's candidate count (Σ out-degree over its members) bounds its
  // accumulator work; the ranges are cut by it. `upper` holds it until the
  // row's range overwrites it.
  std::size_t max_work = 1;
  for (vid_t c = 0; c < num_coarse; ++c) {
    std::size_t w = 0;
    for (eid_t i = starts[c]; i < starts[c + 1]; ++i) w += fine.out_degree(members[i]);
    upper[c] = w;
    max_work = std::max(max_work, w);
  }
  const std::size_t threads = pool != nullptr ? pool->size() : 1;
  std::vector<RowRange> ranges = split_rows(upper.span, threads > 1 ? 4 * threads : 1);

  // Row c of S^T·A·S gathers every adjacency entry of every member, columns
  // through the community map, members ascending and adjacency order within
  // a member. Only the upper half is accumulated: an entry left of the
  // diagonal is the mirror of one that its own row sums, and the scatters
  // below copy it from there. Diagonal contributions come only from the
  // u >= v half (intra edges once, self-loops once) and sum into a scalar.
  // The SPA holds, for each column, the position of its entry among the
  // range's staged entries; a position outside the current row, or one whose
  // staged column differs, means "not touched yet", so the slots are never
  // cleared, only zeroed once when their slab is first taken (any stale
  // position is then a value some earlier row wrote).
  const bool spa = st.accumulator == Accumulator::Spa;
  using Pair = std::pair<cid_t, wt_t>;
  // The sorted-merge pair buffer holds at most half the SPA's bytes
  // (C/4 pairs of 16 B against C slots of 8 B), so the rung-2 swap always
  // sheds footprint; a row with more upper candidates merges them batch by
  // batch.
  const std::size_t batch = std::min(max_work, std::max<std::size_t>(1, num_coarse / 4));
  // One accumulator per worker: a pool runs a call's chunks on at most
  // size() threads. All are taken here, on the calling thread, so the
  // memtrace peak is the same in every run whichever chunks overlap. Worker
  // w uses accumulator w and claims ranges until none is left.
  const std::size_t workers = std::min(threads, ranges.size());
  std::vector<Scratch<eid_t>> spas;
  std::vector<Scratch<Pair>> buffers;
  for (std::size_t w = 0; w < workers; ++w) {
    if (spa) {
      Scratch<eid_t>& where = spas.emplace_back(ws, num_coarse, "blas.spgemm.spa");
      if (ws != nullptr && !where.lease.recycled_same_tag()) {
        std::fill_n(where.lease.data(), where.lease.capacity(), eid_t{0});
      }
    } else {
      buffers.emplace_back(ws, batch, "blas.spgemm.pairs");
    }
  }
  std::atomic<std::size_t> next_range{0};
  const auto accumulate = [&](std::size_t worker) {
    Scratch<eid_t>* const where = spa ? &spas[worker] : nullptr;
    Scratch<Pair>* const pairs = spa ? nullptr : &buffers[worker];
    for (std::size_t r; (r = next_range.fetch_add(1, std::memory_order_relaxed)) < ranges.size();) {
      RowRange& range = ranges[r];
      std::vector<cid_t>& cols = range.cols;
      std::vector<wt_t>& vals = range.vals;
      gpusim::MemoryStats& traffic = range.traffic;
      for (vid_t c = range.lo; c < range.hi; ++c) {
        const std::size_t row_begin = cols.size();
        std::size_t count = 0;  // pairs in the buffer (sorted)
        // Sorted: merges the buffered pairs into the row's staged entries
        // (ascending, one per column). Each pair is added to its column's
        // running sum in encounter order — the stable sort keeps that order
        // within a column — so every sum is bit for bit the SPA's.
        const auto merge_batch = [&] {
          const std::span<Pair> in(pairs->data(), count);
          std::stable_sort(in.begin(), in.end(),
                           [](const Pair& a, const Pair& b) { return a.first < b.first; });
          // Charged as an LSD radix sort over 32-bit keys: 4 passes,
          // read+write per element per pass — the footprint-for-traffic
          // trade rung 2 makes.
          traffic.global_reads += 8 * count;
          traffic.global_writes += 8 * count;
          const std::size_t run_end = cols.size();
          std::size_t fresh = 0;  // batch columns the row has not staged yet
          for (std::size_t i = row_begin, j = 0; j < count;) {
            const cid_t col = in[j].first;
            while (i < run_end && cols[i] < col) ++i;
            if (i == run_end || cols[i] != col) ++fresh;
            while (j < count && in[j].first == col) ++j;
          }
          cols.resize(run_end + fresh);
          vals.resize(run_end + fresh);
          // Merge from the back, so the row grows in place.
          std::size_t out = cols.size();
          std::size_t i = run_end;
          for (std::size_t j = count; j > 0;) {
            const cid_t col = in[j - 1].first;
            std::size_t g = j - 1;
            while (g > 0 && in[g - 1].first == col) --g;
            for (; i > row_begin && cols[i - 1] > col; --i) {
              --out;
              cols[out] = cols[i - 1];
              vals[out] = vals[i - 1];
            }
            const bool staged = i > row_begin && cols[i - 1] == col;
            wt_t sum = staged ? vals[--i] : in[g].second;
            for (std::size_t k = staged ? g : g + 1; k < j; ++k) sum += in[k].second;
            --out;
            cols[out] = col;
            vals[out] = sum;
            traffic.global_reads += j - g;  // merge scan
            traffic.global_writes += 2;
            j = g;
          }
          count = 0;
        };
        wt_t d = 0;
        bool any_diag = false;
        for (eid_t i = starts[c]; i < starts[c + 1]; ++i) {
          const vid_t v = members[i];
          const auto nbrs = fine.neighbors(v);
          const auto wts = fine.weights(v);
          for (std::size_t k = 0; k < nbrs.size(); ++k) {
            const vid_t u = nbrs[k];
            traffic.global_reads += 3;  // neighbour, weight, comm[u]
            const cid_t cu = fine_to_coarse[u];
            if (cu == c && u < v) continue;
            ++range.flops;
            if (cu < c) continue;  // the mirror of row cu's entry
            traffic.global_atomics += 1;  // accumulate
            if (cu == c) {
              d += wts[k];
              any_diag = true;
            } else if (spa) {
              traffic.global_reads += 1;  // SPA slot
              const eid_t p = (*where)[cu];
              if (p >= row_begin && p < cols.size() && cols[p] == cu) {
                vals[p] += wts[k];
              } else {
                (*where)[cu] = cols.size();
                cols.push_back(cu);
                vals.push_back(wts[k]);
                traffic.global_writes += 3;  // slot, column, value
              }
            } else {
              (*pairs)[count++] = {cu, wts[k]};
              traffic.global_writes += 2;  // pair materialisation
              if (count == batch) merge_batch();
            }
          }
        }
        if (count > 0) merge_batch();
        upper[c] = cols.size() - row_begin;
        diag[c] = d;
        has_diag[c] = any_diag ? 1 : 0;
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for_chunked(
        0, workers,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t w = lo; w < hi; ++w) accumulate(w);
        },
        /*grain=*/1);
  } else {
    accumulate(0);
  }
  for (const RowRange& range : ranges) {
    st.flops += range.flops;
    st.traffic += range.traffic;
  }

  // Two counting scatters assemble sorted CSR rows without a sort. Row c is
  // [entries left of the diagonal][diagonal][entries right of it]. The
  // first scatter walks the staged upper entries in row order and writes
  // each (c, d) as (d, c) into row d's left part, so every left part comes
  // out ascending. The second walks those left parts in row order and
  // writes each (d, c) back as (c, d) into row c's right part, ascending
  // too. Each entry left of the diagonal takes the weight its row's mirror
  // summed, so the graph is exactly symmetric for any weights (row c sums
  // (c, d) over c's members and row d would sum (d, c) over d's, which can
  // differ in the last bits). A host-side assembly: no traffic charged.
  Scratch<eid_t> lower(ws, num_coarse, "blas.spgemm.lower");
  std::fill(lower.span.begin(), lower.span.end(), 0);
  for (const RowRange& range : ranges) {
    for (const cid_t col : range.cols) ++lower[col];
  }
  std::vector<eid_t> offsets(static_cast<std::size_t>(num_coarse) + 1, 0);
  for (vid_t c = 0; c < num_coarse; ++c) {
    const eid_t row_nnz = lower[c] + has_diag[c] + upper[c];
    offsets[c + 1] = offsets[c] + row_nnz;
    st.max_row_nnz = std::max<std::uint64_t>(st.max_row_nnz, row_nnz);
    lower[c] = offsets[c];  // now the left-part cursor
  }
  st.nnz = offsets[num_coarse];
  std::vector<vid_t> neighbors(st.nnz);
  std::vector<wt_t> weights(st.nnz);
  st.traffic.global_writes += 2 * st.nnz;  // CSR emit

  for (const RowRange& range : ranges) {
    std::size_t j = 0;
    for (vid_t c = range.lo; c < range.hi; ++c) {
      for (const std::size_t end = j + upper[c]; j < end; ++j) {
        const eid_t pos = lower[range.cols[j]]++;
        neighbors[pos] = c;
        weights[pos] = range.vals[j];
      }
    }
  }
  // lower[c] now ends row c's left part: the diagonal goes there, and the
  // right part starts after it.
  for (vid_t c = 0; c < num_coarse; ++c) {
    eid_t pos = lower[c];
    if (has_diag[c]) {
      neighbors[pos] = c;
      weights[pos] = diag[c];
      ++pos;
    }
    upper[c] = pos;  // now the right-part cursor
  }
  for (vid_t d = 0; d < num_coarse; ++d) {
    for (eid_t e = offsets[d]; e < lower[d]; ++e) {
      const eid_t pos = upper[neighbors[e]]++;
      neighbors[pos] = d;
      weights[pos] = weights[e];
    }
  }

  if (span.active()) {
    span.arg("rows", static_cast<double>(st.rows));
    span.arg("flops", static_cast<double>(st.flops));
    span.arg("nnz", static_cast<double>(st.nnz));
    span.arg("accumulator", spa ? 0.0 : 1.0);
    span.arg("governor_forced", st.governor_forced ? 1.0 : 0.0);
    span.arg("ranges", static_cast<double>(ranges.size()));
    gpusim::attach_traffic(span, st.traffic);
  }

  return graph::GraphBuilder::from_sorted_csr(num_coarse, std::move(offsets),
                                              std::move(neighbors), std::move(weights));
}

}  // namespace gala::blas
