// CSR SpGEMM specialised to the Louvain contraction S^T·A·S (paper §2.2).
//
// S is the V x C membership indicator of `fine_to_coarse`, so row c of the
// product gathers every adjacency entry of c's member vertices with columns
// relabelled through the community map. The canonical enumeration order —
// members ascending, adjacency order within a member — fixes the
// floating-point sum order, making the output bit-identical across the hash
// and sorted-merge accumulators (both sum each output entry's contributions
// in that encounter order) and identical to the legacy edge-list
// builder path for exact-weight graphs. Each lower-triangle entry then takes
// its upper entry's weight, so the output is exactly symmetric for any
// weights.
//
// Counting conventions match core/aggregation.cpp's historical builder loop:
// off-diagonal entries contribute from both endpoints' rows (each
// undirected coarse edge is assembled once per direction), while diagonal
// contributions (comm[u] == comm[v]) are taken only from the u >= v half so
// intra-community edges count once and fine self-loops once — the coarse
// self-loop stored equals D_intra + loops, and degree accounting doubles it.
//
// Accumulators (governor rung 2 forces Sorted — the hash table's
// power-of-two slack is the footprint being shed; see governor.hpp):
//   Hash   — open addressing, power-of-two capacity, linear probing;
//            touched columns sorted per row to emit ordered CSR.
//   Sorted — materialise (column, value) pairs, stable-sort by column
//            (preserving encounter order within a column), merge runs.
#pragma once

#include <cstdint>
#include <span>

#include "gala/blas/blas.hpp"
#include "gala/common/types.hpp"
#include "gala/exec/workspace.hpp"
#include "gala/gpusim/device.hpp"
#include "gala/graph/csr.hpp"

namespace gala::blas {

struct SpgemmStats {
  Accumulator accumulator = Accumulator::Hash;
  /// True when the governor's ladder (rung 2+) overrode a Hash request.
  bool governor_forced = false;
  std::uint64_t rows = 0;         ///< coarse rows (communities)
  std::uint64_t flops = 0;        ///< multiply-accumulate candidates visited
  std::uint64_t nnz = 0;          ///< output adjacency entries
  std::uint64_t max_row_nnz = 0;
  std::uint64_t hash_probes = 0;  ///< linear-probe steps (hash accumulator)
  /// Mean filled/capacity of the hash table over rows (0 under Sorted).
  double mean_occupancy = 0;
  gpusim::MemoryStats traffic;
};

/// Contracts `fine` by the dense community map `fine_to_coarse` (values in
/// [0, num_coarse)) and returns the coarse CSR graph. Scratch is checked out
/// of `ws` (tags "blas.spgemm.*") when given, heap-allocated otherwise —
/// results are identical. `stats`, when given, receives the kernel's
/// counters; traffic is also charged there (the contraction runs once per
/// level, outside any engine launch).
graph::Graph contract_csr(const graph::Graph& fine, std::span<const cid_t> fine_to_coarse,
                          vid_t num_coarse, exec::Workspace* ws, const Tuning& tuning = {},
                          SpgemmStats* stats = nullptr);

}  // namespace gala::blas
