#include "gala/blas/spgemm.hpp"

#include <algorithm>
#include <bit>
#include <optional>
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

std::size_t hash_slot(cid_t c, std::size_t mask) {
  return static_cast<std::size_t>((static_cast<std::uint64_t>(c) * 0x9E3779B97F4A7C15ULL) >> 32) &
         mask;
}

}  // namespace

graph::Graph contract_csr(const graph::Graph& fine, std::span<const cid_t> fine_to_coarse,
                          vid_t num_coarse, exec::Workspace* ws, const Tuning& tuning,
                          SpgemmStats* stats) {
  const vid_t n = fine.num_vertices();
  GALA_CHECK(fine_to_coarse.size() == n, "contract_csr: community map size mismatch");

  SpgemmStats local;
  SpgemmStats& st = stats != nullptr ? *stats : local;
  st = SpgemmStats{};
  st.accumulator = tuning.accumulator;
  if (RunScope::current().governor().force_sorted_accumulator() &&
      st.accumulator == Accumulator::Hash) {
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

  // Upper bound on a row's candidate count = Σ out_degree over members;
  // sizes the accumulator scratch once for the whole kernel.
  std::size_t max_work = 1;
  for (vid_t c = 0; c < num_coarse; ++c) {
    std::size_t work = 0;
    for (eid_t i = starts[c]; i < starts[c + 1]; ++i) {
      work += fine.out_degree(members[i]);
    }
    max_work = std::max(max_work, work);
  }

  std::vector<eid_t> offsets(static_cast<std::size_t>(num_coarse) + 1, 0);
  std::vector<vid_t> neighbors;
  std::vector<wt_t> weights;
  neighbors.reserve(std::min<std::size_t>(fine.num_adjacency(),
                                          static_cast<std::size_t>(num_coarse) * 4));
  weights.reserve(neighbors.capacity());

  using Pair = std::pair<cid_t, wt_t>;
  const bool hashed = st.accumulator == Accumulator::Hash;
  const std::size_t cap = hashed ? std::bit_ceil(std::max<std::size_t>(2 * max_work, 16)) : 0;
  const std::size_t mask = cap != 0 ? cap - 1 : 0;

  // Hash accumulator scratch (keys reset per row via the touched list) or
  // sorted-merge pair buffer — only one variant's slabs are checked out.
  std::optional<Scratch<cid_t>> keys;
  std::optional<Scratch<wt_t>> vals;
  std::optional<Scratch<std::size_t>> touched;
  std::optional<Scratch<Pair>> pairs;
  std::vector<Pair> row_out;  // (column, value), sorted, emitted per row
  if (hashed) {
    keys.emplace(ws, cap, "blas.spgemm.keys");
    vals.emplace(ws, cap, "blas.spgemm.vals");
    touched.emplace(ws, max_work, "blas.spgemm.touched");
    std::fill(keys->span.begin(), keys->span.end(), kInvalidCid);
  } else {
    pairs.emplace(ws, max_work, "blas.spgemm.pairs");
  }
  row_out.reserve(max_work);

  double occupancy_sum = 0;
  for (vid_t c = 0; c < num_coarse; ++c) {
    row_out.clear();
    std::size_t count = 0;  // candidates materialised (sorted) / slots touched (hash)
    const auto emit_candidate = [&](cid_t col, wt_t w) {
      ++st.flops;
      st.traffic.global_atomics += 1;  // accumulate
      if (hashed) {
        std::size_t slot = hash_slot(col, mask);
        st.traffic.global_reads += 1;  // first probe
        while ((*keys)[slot] != kInvalidCid && (*keys)[slot] != col) {
          slot = (slot + 1) & mask;
          ++st.hash_probes;
          st.traffic.global_reads += 1;
        }
        if ((*keys)[slot] == kInvalidCid) {
          (*keys)[slot] = col;
          (*vals)[slot] = w;
          (*touched)[count++] = slot;
        } else {
          (*vals)[slot] += w;
        }
      } else {
        (*pairs)[count++] = {col, w};
        st.traffic.global_writes += 2;  // pair materialisation
      }
    };

    // Row c of S^T·A·S: every adjacency entry of every member, columns
    // through the community map. Diagonal contributions only from the
    // u >= v half (see header: intra edges once, self-loops once).
    for (eid_t i = starts[c]; i < starts[c + 1]; ++i) {
      const vid_t v = members[i];
      const auto nbrs = fine.neighbors(v);
      const auto wts = fine.weights(v);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const vid_t u = nbrs[k];
        st.traffic.global_reads += 3;  // neighbour, weight, comm[u]
        const cid_t cu = fine_to_coarse[u];
        if (cu == c && u < v) continue;
        emit_candidate(cu, wts[k]);
      }
    }

    if (hashed) {
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t slot = (*touched)[j];
        row_out.emplace_back((*keys)[slot], (*vals)[slot]);
        (*keys)[slot] = kInvalidCid;  // reset for the next row
        st.traffic.global_reads += 2;
        st.traffic.global_writes += 1;
      }
      std::sort(row_out.begin(), row_out.end(),
                [](const Pair& a, const Pair& b) { return a.first < b.first; });
      occupancy_sum += cap != 0 ? static_cast<double>(count) / static_cast<double>(cap) : 0;
    } else {
      // Stable sort preserves encounter order within a column, so the merge
      // sums each output entry in exactly the hash accumulator's order.
      const std::span<Pair> in(pairs->data(), count);
      std::stable_sort(in.begin(), in.end(),
                       [](const Pair& a, const Pair& b) { return a.first < b.first; });
      // Charged as an LSD radix sort over 32-bit keys: 4 passes, read+write
      // per element per pass — the footprint-for-traffic trade rung 2 makes.
      st.traffic.global_reads += 8 * count;
      st.traffic.global_writes += 8 * count;
      std::size_t j = 0;
      while (j < count) {
        const cid_t col = in[j].first;
        wt_t sum = 0;
        while (j < count && in[j].first == col) {
          st.traffic.global_reads += 1;  // merge scan
          sum += in[j].second;
          ++j;
        }
        row_out.emplace_back(col, sum);
      }
    }

    for (const auto& [col, w] : row_out) {
      neighbors.push_back(col);
      weights.push_back(w);
      st.traffic.global_writes += 2;
    }
    offsets[c + 1] = offsets[c] + static_cast<eid_t>(row_out.size());
    st.nnz += row_out.size();
    st.max_row_nnz = std::max<std::uint64_t>(st.max_row_nnz, row_out.size());
  }
  if (hashed && num_coarse > 0) occupancy_sum /= static_cast<double>(num_coarse);
  st.mean_occupancy = hashed ? occupancy_sum : 0;

  if (span.active()) {
    span.arg("rows", static_cast<double>(st.rows));
    span.arg("flops", static_cast<double>(st.flops));
    span.arg("nnz", static_cast<double>(st.nnz));
    span.arg("accumulator", hashed ? 0.0 : 1.0);
    span.arg("governor_forced", st.governor_forced ? 1.0 : 0.0);
    gpusim::attach_traffic(span, st.traffic);
  }

  // Row c sums entry (c, d) over c's members and row d sums (d, c) over d's,
  // so with inexact weights the two directions can differ in the last bits.
  // Mirror every upper entry onto its reverse so the coarse graph is exactly
  // symmetric, as every GraphBuilder graph is (graph::load_binary requires
  // it). Rows ascend, so the reverse of (c, d), d > c, is the next
  // below-diagonal entry of row d. A host-side fix-up: no traffic charged.
  std::vector<eid_t> cursor(offsets.begin(), offsets.end() - 1);
  for (vid_t c = 0; c < num_coarse; ++c) {
    for (eid_t e = offsets[c]; e < offsets[c + 1]; ++e) {
      if (neighbors[e] > c) weights[cursor[neighbors[e]]++] = weights[e];
    }
  }

  return graph::GraphBuilder::from_sorted_csr(num_coarse, std::move(offsets),
                                              std::move(neighbors), std::move(weights));
}

}  // namespace gala::blas
