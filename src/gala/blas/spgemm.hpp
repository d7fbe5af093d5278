// CSR SpGEMM specialised to the Louvain contraction S^T·A·S (paper §2.2).
//
// S is the V x C membership indicator of `fine_to_coarse`, so row c of the
// product gathers every adjacency entry of c's member vertices with columns
// relabelled through the community map. The canonical enumeration order —
// members ascending, adjacency order within a member — fixes the
// floating-point sum order, making the output bit-identical across the SPA
// and sorted-merge accumulators (both sum each output entry's contributions
// in that encounter order), across pools of any size, and identical to the
// legacy edge-list builder path for exact-weight graphs.
//
// Counting conventions match core/aggregation.cpp's historical builder loop:
// off-diagonal entries exist in both endpoints' rows (each undirected coarse
// edge appears once per direction), while diagonal contributions
// (comm[u] == comm[v]) are taken only from the u >= v half so
// intra-community edges count once and fine self-loops once — the coarse
// self-loop stored equals D_intra + loops, and degree accounting doubles it.
//
// Only the upper triangle is summed (GraphBLAST's idiom for a symmetric
// product): row c accumulates its entries (c, d) with d > c, and its
// diagonal as a scalar. Every entry (d, c) left of the diagonal takes the
// weight of its mirror (c, d), so the output is exactly symmetric for any
// weights. Two counting scatters then build the left halves and the sorted
// right halves of the rows; no row is sorted. The rows are cut into ranges
// of equal candidate work, which the caller's pool's threads claim one by
// one (the calling thread takes them all without a pool). Each thread holds
// one accumulator, and all of them are taken before any row runs, so the
// memtrace peak does not depend on thread timing.
//
// Accumulators (governor rung 2 forces Sorted — the dense SPA's C slots per
// thread are the footprint being shed; see governor.hpp):
//   Spa    — a dense array of C slots mapping a column to its entry's
//            position in the range's staged output, validated against the
//            current row instead of cleared.
//   Sorted — buffer the row's (column, value) pairs, stable-sort them by
//            column (preserving encounter order within a column) and merge
//            them into the row's staged entries, adding each pair to its
//            column's sum in order. The buffer holds at most C/4 pairs, half
//            the SPA's bytes; a longer row merges in batches.
#pragma once

#include <cstdint>
#include <span>

#include "gala/blas/blas.hpp"
#include "gala/common/thread_pool.hpp"
#include "gala/common/types.hpp"
#include "gala/exec/workspace.hpp"
#include "gala/gpusim/device.hpp"
#include "gala/graph/csr.hpp"

namespace gala::blas {

struct SpgemmStats {
  Accumulator accumulator = Accumulator::Spa;
  /// True when the governor's ladder (rung 2+) overrode a Spa request.
  bool governor_forced = false;
  std::uint64_t rows = 0;   ///< coarse rows (communities)
  /// Multiply-accumulate candidates visited: every member adjacency entry
  /// but the u < v half of the intra-community ones, the mirrored entries
  /// left of the diagonal included.
  std::uint64_t flops = 0;
  std::uint64_t nnz = 0;    ///< output adjacency entries
  std::uint64_t max_row_nnz = 0;
  gpusim::MemoryStats traffic;
};

/// Contracts `fine` by the dense community map `fine_to_coarse` (values in
/// [0, num_coarse)) and returns the coarse CSR graph. Scratch is checked out
/// of `ws` (tags "blas.spgemm.*") when given, heap-allocated otherwise —
/// results are identical. `stats`, when given, receives the kernel's
/// counters; traffic is also charged there (the contraction runs once per
/// level, outside any engine launch). The row accumulation runs as chunks
/// on `pool` when given, on the calling thread otherwise; the output does
/// not depend on it.
graph::Graph contract_csr(const graph::Graph& fine, std::span<const cid_t> fine_to_coarse,
                          vid_t num_coarse, exec::Workspace* ws, const Tuning& tuning = {},
                          SpgemmStats* stats = nullptr, ThreadPool* pool = nullptr);

}  // namespace gala::blas
