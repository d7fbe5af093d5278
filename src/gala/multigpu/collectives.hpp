// Simulated NCCL collectives over partition threads (paper §4.3).
//
// P simulated devices run on P host threads; the collectives exchange state
// through shared staging buffers with barrier synchronisation (so they are
// *functionally* real), and every call is charged to an alpha-beta
// communication cost model
//     t = alpha + bytes_on_wire / beta
// per device, which is what the dense-vs-sparse trade-off depends on.
//
// Byte-charging convention is explicit (CommCostModel::ring_convention):
//   - canonical (default): the full payload volume is charged — an
//     AllGather of N bytes total charges N, an AllReduce of a B-byte buffer
//     charges B. Simple, matches the wire figures in the iteration log.
//   - ring: NCCL ring-collective volumes — AllGather moves (P-1)/P of the
//     total per device, AllReduce (reduce-scatter + all-gather) moves
//     2·(P-1)/P of its payload per device. Closed forms are asserted in
//     multigpu_test.cpp; fig10 uses the ring convention throughout.
//
// Asynchronous double buffering: all_gather_v_into() has a split form —
// post_gather_v() stages this rank's contribution and *arrives* at the
// exchange barrier without waiting, returning a PendingGather handle;
// complete_gather_v() waits for the phase, verifies, copies out, and crosses
// the round's second barrier. Compute performed between the two calls
// overlaps the modeled exchange: the caller passes its modeled microseconds
// as `overlap_credit_us` and the charge splits into hidden time
// (min(cost, credit), accumulated in CommStats::hidden_us) and exposed wait
// (CommStats::wait_us()). The blocking form is post + complete with zero
// credit — byte accounting and fault semantics are identical.
//
// Fault semantics (gala::resilience): every all_gather_v contribution
// carries an out-of-band FNV-1a checksum and a status flag. An armed fault
// plan can drop a rank's chunk, stall it past the collective deadline, or
// corrupt its payload (caught by the checksum). Detection is symmetric: all
// ranks inspect the same staged state after the exchange barrier and throw
// an identical CollectiveFault, so retry loops above stay barrier-aligned.
// The fault is raised only after the round's second barrier — every rank
// has finished reading the staging buffers before any rank can retry and
// re-stage its slot. This holds for the posted form too: complete_gather_v
// crosses both barriers before throwing, so a retry loop around a
// post/complete pair is exactly as barrier-aligned as the blocking one.
// Checksums and flags ride outside the modeled wire format — CommStats byte
// accounting is unchanged.
//
// A rank that dies outside a collective calls abort(): it marks the
// communicator failed and drops out of the barrier (arrive_and_drop), so
// every rank still waiting is released and fails fast at its next
// collective entry instead of deadlocking. A rank that throws between post
// and complete abandons its pending phase; its abort() releases the peers
// blocked on the round's barriers.
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gala/codec/delta_codec.hpp"
#include "gala/common/error.hpp"
#include "gala/common/types.hpp"
#include "gala/scope/run_scope.hpp"

namespace gala::multigpu {

/// A collective failed (injected drop/timeout/corruption, a malformed
/// sparse-delta payload, or a peer rank aborted). Retryable: the supervisor
/// and the distributed engine's sync fallback catch it. An alias of the
/// shared codec's fault type — decode errors and collective errors are the
/// same failure domain to every retry loop, and the alias keeps them one
/// type now that the codec lives below this library.
using CollectiveFault = codec::CodecFault;

struct CommCostModel {
  double alpha_us = 5.0;       ///< per-collective latency, microseconds
  double beta_gbps = 25.0;     ///< effective per-link bandwidth, GB/s
  /// Charge NCCL ring-collective volumes instead of canonical full-payload
  /// volumes (see the header comment for the closed forms).
  bool ring_convention = false;

  double microseconds(std::size_t bytes) const {
    return alpha_us + static_cast<double>(bytes) / (beta_gbps * 1e3);  // bytes/GBps = ns
  }
};

/// Per-device communication accounting.
struct CommStats {
  std::uint64_t collectives = 0;
  std::uint64_t posted = 0;    ///< collectives completed through post/complete
  std::uint64_t bytes = 0;     ///< charged wire bytes (per ring_convention)
  double modeled_us = 0;       ///< full alpha-beta cost of every collective
  double hidden_us = 0;        ///< portion hidden behind overlapped compute

  /// Exposed communication time: what actually sits on the critical path.
  double wait_us() const { return modeled_us - hidden_us; }
  /// Fraction of the modeled communication time hidden by overlap.
  double overlap_ratio() const { return modeled_us > 0 ? hidden_us / modeled_us : 0.0; }

  CommStats& operator+=(const CommStats& o) {
    collectives += o.collectives;
    posted += o.posted;
    bytes += o.bytes;
    modeled_us += o.modeled_us;
    hidden_us += o.hidden_us;
    return *this;
  }
};

/// FNV-1a over a byte span — the sync-message integrity check. Shared with
/// the frame codec; re-exported here for the staging-checksum call sites.
using codec::fnv1a;

/// One communicator shared by all participants (like an ncclComm_t set).
/// Methods are *collective*: every rank must call them in the same order.
class Communicator {
 public:
  Communicator(std::size_t num_ranks, CommCostModel cost = {});

  std::size_t num_ranks() const { return num_ranks_; }

  /// Handle for an in-flight posted all-gather. Move-only; must be passed to
  /// complete_gather_v before the next collective on the same communicator.
  class PendingGather {
   public:
    PendingGather() = default;
    PendingGather(PendingGather&&) = default;
    PendingGather& operator=(PendingGather&&) = default;
    PendingGather(const PendingGather&) = delete;
    PendingGather& operator=(const PendingGather&) = delete;

    bool active() const { return token_.has_value(); }

   private:
    friend class Communicator;
    std::optional<std::barrier<>::arrival_token> token_;
  };

  /// Stages this rank's contribution and arrives at the exchange barrier
  /// *without waiting* — the "post" half of an asynchronous all-gather. The
  /// caller may compute between post and complete; every rank must complete
  /// before its next collective call.
  template <typename T>
  [[nodiscard]] PendingGather post_gather_v(std::size_t rank, std::span<const T> local) {
    GALA_CHECK(rank < num_ranks_,
               "post_gather_v: rank " << rank << " out of range [0, " << num_ranks_ << ")");
    check_abort("post_gather_v");
    // Staging copies are charged per rank (the caller's RankScope is this
    // rank's worker thread), outside the communicator lock.
    memtrace::charge("multigpu.comm_staging", local.size() * sizeof(T));
    {
      std::lock_guard lock(mutex_);
      Chunk& c = staging_[rank];
      c.bytes.assign(reinterpret_cast<const std::byte*>(local.data()),
                     reinterpret_cast<const std::byte*>(local.data()) + local.size() * sizeof(T));
      c.status = ChunkStatus::Ok;
      c.checksum = fnv1a(c.bytes);
      if (RunScope::current().faults().armed()) inject_gather_faults(rank, c);
    }
    PendingGather pending;
    pending.token_.emplace(barrier_.arrive());
    return pending;
  }

  /// The "complete" half: waits for every rank's contribution, verifies the
  /// round, writes the rank-order concatenation into `out`, and crosses the
  /// round's second barrier. `overlap_credit_us` is the modeled time of the
  /// compute the caller performed since post_gather_v; min(cost, credit) of
  /// this collective's alpha-beta cost is recorded as hidden. Throws
  /// CollectiveFault — identically on all ranks, after both barriers — on a
  /// dropped/timed-out/corrupted contribution; `out` is untouched on fault.
  template <typename T, typename OutVec>
  void complete_gather_v(PendingGather&& pending, CommStats& stats, OutVec& out,
                         double overlap_credit_us = 0.0) {
    GALA_CHECK(pending.token_.has_value(), "complete_gather_v: no posted collective");
    barrier_.wait(std::move(*pending.token_));
    pending.token_.reset();
    finish_gather<T>(stats, out, overlap_credit_us, /*async=*/true);
  }

  /// ncclAllGather of variable-size per-rank contributions, written into a
  /// caller-provided buffer (any vector-like type with resize()/data(), e.g.
  /// an exec::PooledVec staged across sync rounds). Each rank passes its
  /// local chunk; `out` receives the concatenation in rank order (identical
  /// on every rank). Blocking form of post + complete with zero overlap
  /// credit; throws CollectiveFault — identically on all ranks — when any
  /// contribution was dropped, timed out, or fails its checksum; the throw
  /// happens *before* `out` is touched, so retry loops can reuse the same
  /// buffer.
  template <typename T, typename OutVec>
  void all_gather_v_into(std::size_t rank, std::span<const T> local, CommStats& stats,
                         OutVec& out) {
    PendingGather pending = post_gather_v<T>(rank, local);
    barrier_.wait(std::move(*pending.token_));
    pending.token_.reset();
    finish_gather<T>(stats, out, 0.0, /*async=*/false);
  }

  /// Convenience form returning a fresh vector.
  template <typename T>
  std::vector<T> all_gather_v(std::size_t rank, std::span<const T> local, CommStats& stats) {
    std::vector<T> out;
    all_gather_v_into<T>(rank, local, stats, out);
    return out;
  }

  /// ncclAllReduce(sum) over a double vector (all ranks same length).
  void all_reduce_sum(std::size_t rank, std::span<double> data, CommStats& stats);

  /// ncclAllReduce(min) over a single scalar.
  double all_reduce_min(std::size_t rank, double value, CommStats& stats);

  /// Plain barrier (used around iteration boundaries).
  void barrier() { barrier_.arrive_and_wait(); }

  /// Charged per-device bytes for an all-gather whose contributions total
  /// `total` bytes: ring moves (P-1)/P of the payload, canonical charges it
  /// all. Exposed for the closed-form accounting tests.
  std::size_t charged_gather_bytes(std::size_t total) const {
    return cost_.ring_convention ? total * (num_ranks_ - 1) / num_ranks_ : total;
  }
  /// Charged per-device bytes for an all-reduce over a `payload`-byte
  /// buffer: ring (reduce-scatter + all-gather) moves 2·(P-1)/P of it.
  std::size_t charged_reduce_bytes(std::size_t payload) const {
    return cost_.ring_convention ? 2 * payload * (num_ranks_ - 1) / num_ranks_ : payload;
  }

  /// Marks the communicator failed and drops this rank out of the barrier,
  /// releasing any rank still waiting. Call from a rank's exception handler
  /// before unwinding; every surviving rank throws CollectiveFault at its
  /// next collective entry.
  void abort(const std::string& reason);

  /// True once any rank aborted.
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

 private:
  enum class ChunkStatus : std::uint8_t { Ok, Dropped, TimedOut };

  /// One rank's staged contribution plus out-of-band integrity metadata
  /// (not part of the modeled wire bytes).
  struct Chunk {
    std::vector<std::byte> bytes;
    std::uint64_t checksum = 0;
    ChunkStatus status = ChunkStatus::Ok;
  };

  /// Shared tail of the blocking and posted gather forms: runs after the
  /// exchange-barrier wait. Verifies, copies out, charges stats, crosses the
  /// second barrier, and only then raises any fault.
  template <typename T, typename OutVec>
  void finish_gather(CommStats& stats, OutVec& out, double overlap_credit_us, bool async) {
    // All staged writes happened-before this point; every rank scans the
    // same staged state, so every rank computes the same verdict. The
    // verdict must NOT throw before the second barrier: a rank that threw
    // early could retry and re-stage its slot while a laggard is still
    // reading it (and a re-staged clean chunk would even pass the laggard's
    // checksum, handing it a mixed-round payload).
    const std::string fault = verify_round("all_gather_v");
    if (fault.empty()) {
      std::size_t total_bytes = 0;
      for (const Chunk& c : staging_) total_bytes += c.bytes.size();
      out.resize(total_bytes / sizeof(T));
      std::size_t off = 0;
      for (const Chunk& c : staging_) {
        if (c.bytes.empty()) continue;  // empty contribution: data() may be null
        std::memcpy(reinterpret_cast<std::byte*>(out.data()) + off, c.bytes.data(),
                    c.bytes.size());
        off += c.bytes.size();
      }
      const std::size_t charged = charged_gather_bytes(total_bytes);
      const double cost_us = cost_.microseconds(charged);
      stats.collectives += 1;
      if (async) stats.posted += 1;
      stats.bytes += charged;
      stats.modeled_us += cost_us;
      stats.hidden_us += std::min(cost_us, std::max(0.0, overlap_credit_us));
    }
    barrier_.arrive_and_wait();  // staging reusable: every rank done reading
    if (!fault.empty()) GALA_THROW(CollectiveFault, fault);
  }

  /// Applies armed collective fault rules to this rank's staged chunk.
  void inject_gather_faults(std::size_t rank, Chunk& chunk);

  /// Post-exchange integrity scan; returns the fault message for the first
  /// bad chunk (deterministic rank order, identical on every rank) or empty
  /// when the round is clean. Never throws: the caller must cross the
  /// round's final barrier before raising the fault, so no rank can retry
  /// and re-stage while a peer is still reading the staging buffers.
  std::string verify_round(const char* op);

  /// Throws CollectiveFault when a peer aborted the communicator.
  void check_abort(const char* op);

  std::size_t num_ranks_;
  CommCostModel cost_;
  std::barrier<> barrier_;
  std::mutex mutex_;
  std::vector<Chunk> staging_;
  std::vector<double> reduce_buffer_;
  std::vector<double> scalar_buffer_;
  std::atomic<bool> aborted_{false};
  std::string abort_reason_;
};

}  // namespace gala::multigpu
