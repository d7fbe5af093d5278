// Compressed sparse-delta wire codec (shared library; paper §4.3).
//
// Grown in the multi-GPU sync path and hoisted here unchanged so other
// subsystems (the out-of-core CSR loader ROADMAP names, checkpointing) can
// reuse the frame format without linking the distributed engine, which
// calls these codec:: names directly.
//
// The sparse synchronisation ships (vertex, new community) move records.
// Raw records cost 8 bytes each; this codec exploits the two regularities
// the move stream always has — vertex ids are sorted (the decide loop walks
// the owned range in order) and the set of destination communities is far
// smaller than the set of movers — to shrink the wire payload:
//
//   - vertex ids are delta-encoded (first id raw, then successor gaps) and
//     LEB128-varint packed, so dense move runs cost ~1 byte per vertex,
//   - communities are dictionary-mapped: each distinct destination id is
//     stored once (first-appearance order) and records carry the varint
//     dictionary index.
//
// One rank's moves form a self-delimiting *frame*; an all-gather of frames
// concatenates in rank order and decode_moves() walks the concatenation.
//
//   u32 LE   body length N (bytes following this field)
//   body:
//     varint record count
//     varint dictionary size
//     dict entries       — varint community id each, first-appearance order
//     vertex stream      — varint first id, then varint gaps (gap >= 1)
//     community stream   — varint dictionary index per record
//     u64 LE  FNV-1a checksum over the body bytes before this trailer
//
// Decoding is fail-closed: a truncated buffer, a varint running past the
// frame, a checksum mismatch, a non-monotone vertex stream, an
// out-of-range id, or leftover bytes all raise CodecFault — a corrupted
// payload is never decoded into garbage moves. The frame checksum makes the
// codec self-verifying even outside the communicator's own staging checksum
// (which guards the same bytes in transit).
//
// The charged wire size is the encoded size: the caller gathers the frame
// bytes through the communicator, so the alpha-beta cost model and the
// adaptive dense/sparse crossover see the real compressed payload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gala/common/types.hpp"
#include "gala/exec/workspace.hpp"
#include "gala/resilience/fault_injection.hpp"

namespace gala::codec {

/// A frame failed to decode (truncation, checksum mismatch, malformed
/// stream). Retryable: derives from resilience::TransientFault so supervisor
/// retry loops treat a corrupt payload like any other transient collective
/// failure. gala::multigpu aliases this as CollectiveFault.
class CodecFault : public resilience::TransientFault {
 public:
  using TransientFault::TransientFault;
};

/// FNV-1a over a byte span — the frame/sync-message integrity check.
inline std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Sparse-sync wire record: one moved vertex.
struct MoveRecord {
  vid_t vertex;
  cid_t community;
};

inline bool operator==(const MoveRecord& a, const MoveRecord& b) {
  return a.vertex == b.vertex && a.community == b.community;
}

/// Appends one frame encoding `moves` to `out`. Preconditions (checked):
/// vertex ids strictly ascending. Encoding an empty set yields a valid
/// (minimal) frame; callers normally skip it and contribute zero bytes.
void encode_moves(std::span<const MoveRecord> moves, std::vector<std::byte>& out);
void encode_moves(std::span<const MoveRecord> moves, exec::PooledVec<std::byte>& out);

/// Decodes a concatenation of frames (rank order), appending every record
/// to `out`. `num_vertices` bounds both vertex and community ids and the
/// per-frame record count. Throws CodecFault on any malformed input;
/// `out` may hold records from frames decoded before the fault — callers
/// clear it on retry.
void decode_moves(std::span<const std::byte> frames, vid_t num_vertices,
                  std::vector<MoveRecord>& out);
void decode_moves(std::span<const std::byte> frames, vid_t num_vertices,
                  exec::PooledVec<MoveRecord>& out);

}  // namespace gala::codec
