// gala::blas — GraphBLAS-style linear-algebra primitives (ROADMAP's second
// engine; GraphBLAST / Gunrock lineage, PAPERS.md).
//
// Louvain decomposes into two sparse linear-algebra kernels:
//   - the per-vertex neighbour-community weight gather d_C(v) is a masked
//     SpMV row sweep over A with columns relabelled by the community map
//     (spmv.hpp), direction-optimized push/pull by frontier density,
//   - phase-2 contraction is the triple product S^T·A·S where S is the
//     V x C membership indicator (spgemm.hpp), summed over the upper
//     triangle with a dense SPA or a sorted-merge row accumulator.
//
// This library is primitives-only: it knows graphs, workspaces, the device
// model, and the governor — never the engine. The blas Louvain engine that
// composes these into phase 1 lives in core/blas_louvain.*, behind the
// LouvainBackend seam (core/backend.hpp).
//
// Determinism contract: every accumulator sums a row's contributions in
// adjacency encounter order, the same order the BSP hash kernel upserts.
// Sums are therefore bit-identical across accumulator variants, push/pull
// directions, and against the hash-kernel engine — which is what lets the
// governor swap accumulators mid-run and the backend-parity suite assert
// equality rather than tolerance.
#pragma once

#include <cstdint>

namespace gala::blas {

/// SpGEMM row-accumulator variant. Spa: a dense array of C slots per pool
/// thread (sparse accumulator) — fastest, but its C slots are real footprint.
/// Sorted: materialise (column, value) pairs and stable-sort-merge —
/// smaller, more traffic. Output is bit-identical (see header comment), so
/// the governor may force Sorted under memory pressure without perturbing
/// the partition.
enum class Accumulator : std::uint8_t { Spa, Sorted };
const char* to_string(Accumulator a);

/// Masked-SpMV sweep direction (Gunrock's direction-optimization). Pull
/// iterates all rows testing the mask; Push compacts the frontier first and
/// iterates only it. The evaluated row set is identical either way — the
/// choice trades mask-scan traffic against frontier materialisation.
enum class Direction : std::uint8_t { Pull, Push };
const char* to_string(Direction d);

/// Knobs the blas backend exposes through GalaConfig::blas.
struct Tuning {
  Accumulator accumulator = Accumulator::Spa;
  /// Frontier density (active/V) at or above which the gather pulls;
  /// below it, the frontier is compacted and pushed.
  double pull_threshold = 0.10;
};

/// Direction selection by frontier density (deterministic, pure).
Direction choose_direction(std::uint64_t active_rows, std::uint64_t total_rows,
                           double pull_threshold);

}  // namespace gala::blas
