// gala::memtrace — whole-system memory observability.
//
// Every allocating subsystem (the exec Workspace slab pool, gpusim device
// arenas and cycle buffers, kernel hash scratch, multigpu sync staging and
// codec frames, graph CSR/contraction storage) reports into the MemRegistry
// of the calling thread's RunScope (gala/scope/run_scope.hpp, whose
// memtrace:: wrappers are the allocation sites' entry points), keyed by the
// same dotted tags the Workspace already uses
// ("phase1.delta", "gpusim.shared_arena", ...). The registry answers the
// question the out-of-core roadmap item needs answered first: where do the
// bytes live, and when do they peak.
//
// Accounting model — modeled bytes, not host bytes:
//
//  - A workspace checkout is charged `class_bytes(requested)` — the size
//    class of the *request* — never the capacity of the slab that actually
//    served it. Pooled best-fit may hand out a slab up to 4x larger; that
//    slack is real host memory but it depends on pool state, so it is
//    tracked separately in the host section (note_slack). The modeled
//    charge depends only on the request sequence, which is why the
//    deterministic fields of the mem report are byte-identical with pooling
//    on or off, mirroring the health-report guarantee.
//  - Cells are keyed by (tag, ambient RankScope). Each distributed rank
//    thread owns its accounting stream, so per-cell live/peak trajectories
//    are single-threaded and deterministic; the report merges ranks by
//    summing (a deterministic upper bound on the true concurrent peak).
//    Host thread-pool workers all share rank -1, so peaks recorded under
//    parallel launches are scheduling-dependent — the determinism guarantee
//    (and the perf_profile gate rows) therefore use sequential launches,
//    exactly like the profiler baselines.
//  - charge() is alloc+free in one step for transient buffers that several
//    threads produce concurrently (codec frames, comm staging copies): it
//    advances the cumulative counters and records the largest single charge
//    as the peak, both of which are interleaving-independent.
//  - set_resident() is a gauge for storage the registry does not see
//    allocate (CSR arrays, contraction output): byte sizes are computed from
//    element counts, never vector capacities, so they are deterministic.
//
// Epoch-aligned residency timeline: engines call mark_epoch() at iteration
// and level boundaries (single-threaded coordination points — in the
// distributed engine rank 0 marks while the other ranks are parked at the
// iteration barrier). Each mark snapshots per-subsystem live+resident bytes
// into a bounded timeline and, when the tracer is enabled, emits a
// Chrome-trace counter ("C") event on the "memory" track so byte curves
// line up with the level/iteration spans.
//
// Leak detector: Workspace::reset_level() calls note_level_reset(); any tag
// with live modeled bytes at a level boundary is retention the pool contract
// forbids, and the report's leak_check section names it.
//
// Cost discipline: armed by default; an armed call is one registry mutex
// plus a map find on a hot path that only runs on pool checkout (steady
// state loops are checkout-free). Accounting never touches the gpusim cost
// model, so armed modeled counters are bit-identical to disarmed ones —
// bench/perf_profile.cpp gates the wall overhead under the same 2% cap as
// the flight recorder. Disarmed, every site pays a single relaxed load.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "gala/telemetry/telemetry.hpp"

namespace gala::memtrace {

/// What a mark_epoch() snapshot aligns to.
enum class EpochKind : std::uint8_t { Iteration, Level };

const char* to_string(EpochKind kind);

/// Per-tag gauge set, merged across ranks (counts and peaks summed).
struct TagStats {
  std::string name;
  std::uint64_t allocs = 0;        ///< checkouts + one-shot charges
  std::uint64_t frees = 0;         ///< lease give-backs
  std::uint64_t bytes_total = 0;   ///< cumulative modeled bytes ever charged
  std::uint64_t live = 0;          ///< modeled bytes live right now
  std::uint64_t peak = 0;          ///< high-water mark (summed per-rank peaks)
  std::uint64_t waste = 0;         ///< Σ size-class rounding (class − requested)
  std::uint64_t resident = 0;      ///< set_resident gauge value
  std::uint64_t resident_peak = 0; ///< high-water mark of the gauge
  std::uint64_t retained = 0;      ///< worst live bytes seen at a level reset
  bool workspace = false;          ///< charged via the Workspace slab pool
};

/// One subsystem (the tag prefix before the first '.'), totals plus tags.
struct SubsystemStats {
  std::string name;
  std::uint64_t allocs = 0;
  std::uint64_t bytes_total = 0;
  std::uint64_t live = 0;
  std::uint64_t peak = 0;
  std::uint64_t waste = 0;
  std::uint64_t resident = 0;
  std::uint64_t resident_peak = 0;
  std::vector<TagStats> tags;
};

/// One residency snapshot: live+resident bytes per subsystem at an epoch.
struct EpochSnapshot {
  EpochKind kind = EpochKind::Iteration;
  std::int64_t index = 0;
  std::uint64_t total = 0;
  std::vector<std::pair<std::string, std::uint64_t>> subsystems;
};

/// The run report's "mem" section ("mem_schema" 1). Every field except the host
/// section is derived from modeled bytes and deterministic for a fixed
/// configuration; json(/*include_host=*/false) is the byte-identity surface
/// the determinism tests compare.
struct MemReport {
  static constexpr int kSchema = 1;

  bool armed = true;
  std::vector<SubsystemStats> subsystems;
  std::vector<EpochSnapshot> timeline;
  std::uint64_t timeline_dropped = 0;
  std::uint64_t level_resets = 0;
  /// High-water of modeled live+resident bytes (transient charges
  /// included), taken per rank stream and summed over streams: a
  /// deterministic upper bound on the bytes ever live at once, which is what
  /// a governor budget caps. Unlike peak_total_bytes() it never adds up
  /// peaks that cannot coexist (phase 2's scratch and phase 1's, say).
  std::uint64_t peak_live_bytes = 0;
  /// Host section (pool-state dependent, excluded from byte-identity):
  /// actual-slab-capacity slack beyond the modeled size class.
  std::uint64_t pool_slack_bytes = 0;

  /// Σ per-tag peaks over workspace-pooled tags.
  std::uint64_t peak_ws_bytes() const;
  /// Σ per-tag peaks + resident peaks over every tag.
  std::uint64_t peak_total_bytes() const;
  /// Modeled bytes live (checked out + resident) right now.
  std::uint64_t live_bytes() const;
  /// Internal fragmentation from size-class rounding, percent of charged
  /// bytes. Deterministic: both terms depend only on the request sequence.
  double frag_pct() const;
  /// Tags that still held live bytes at a level reset.
  std::vector<const TagStats*> leaks() const;
  bool leak_free() const { return leaks().empty(); }

  std::string json(bool include_host = true) const;
};

/// Registry of per-subsystem memory gauges (one per RunScope).
class MemRegistry {
 public:
  /// Timeline retention cap; marks beyond it count as timeline_dropped.
  static constexpr std::size_t kMaxTimeline = 1u << 16;

  /// `tracer` (optional) receives mark_epoch()'s "memory" counter samples.
  explicit MemRegistry(telemetry::Tracer* tracer = nullptr) : tracer_(tracer) {}

  /// Fast disarmed check: one relaxed load. Armed by default.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  void arm() { armed_.store(true, std::memory_order_relaxed); }
  void disarm() { armed_.store(false, std::memory_order_relaxed); }

  /// Modeled bytes live right now (checked out + resident + admitted ahead
  /// of their allocation), summed across all tags and ranks: the
  /// budget-enforcement input. One relaxed load.
  std::uint64_t live_total() const { return live_total_.load(std::memory_order_relaxed); }
  /// Charges `bytes` to the live total in one atomic step and returns the
  /// total including them: the governor's admission, which concurrent
  /// admissions see at once. The allocation that follows passes the same
  /// bytes as `reserved`; a refused or transient one gives them back.
  std::uint64_t reserve(std::uint64_t bytes) {
    return live_total_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  }
  void release(std::uint64_t bytes) { live_total_.fetch_sub(bytes, std::memory_order_relaxed); }
  /// Modeled live+resident bytes for one subsystem (tag prefix).
  std::uint64_t live_subsystem(std::string_view subsys) const;
  /// Current set_resident() gauge for `tag` under the ambient RankScope
  /// (0 when the cell does not exist yet). Used by the admission wrapper to
  /// charge only the gauge's increase.
  std::uint64_t resident_of(std::string_view tag) const;

  /// A buffer went live under `tag`: `modeled` is its size-class charge,
  /// `requested` the raw request (their difference accumulates as waste).
  /// `reserved` of the modeled bytes are already in the live total.
  void on_alloc(std::string_view tag, std::uint64_t modeled, std::uint64_t requested,
                bool workspace, std::uint64_t reserved = 0);
  /// The matching release. Unknown tags are ignored (never throws — runs
  /// inside noexcept release paths).
  void on_free(std::string_view tag, std::uint64_t modeled) noexcept;
  /// One-shot charge for a transient buffer: counts and the largest single
  /// charge are recorded; live is untouched (interleaving-independent).
  void charge(std::string_view tag, std::uint64_t modeled);
  /// Gauge for externally-owned storage (CSR arrays, contraction output).
  /// `reserved` of the gauge's increase are already in the live total.
  void set_resident(std::string_view tag, std::uint64_t bytes, std::uint64_t reserved = 0);
  /// Moves the gauge by `delta` in one step, for a gauge several owners
  /// share (each adds the change of its own share).
  void add_resident(std::string_view tag, std::int64_t delta, std::uint64_t reserved = 0);
  /// Host-section slack: actual slab capacity beyond the modeled class.
  void note_slack(std::uint64_t bytes);

  /// Snapshots per-subsystem live+resident bytes into the timeline and, when
  /// the tracer is enabled, emits a Chrome counter event on the "memory"
  /// track. Call from single-threaded coordination points only.
  void mark_epoch(EpochKind kind, std::int64_t index);

  /// Level-reset hook (called by Workspace::reset_level): live bytes here
  /// are retention the pool contract forbids — recorded per tag.
  void note_level_reset();

  MemReport report() const;

 private:
  struct Key {
    std::string tag;
    int rank;
  };
  struct KeyLess {
    using is_transparent = void;
    static std::pair<std::string_view, int> view(const Key& k) { return {k.tag, k.rank}; }
    bool operator()(const Key& a, const Key& b) const { return view(a) < view(b); }
    bool operator()(const Key& a, const std::pair<std::string_view, int>& b) const {
      return view(a) < b;
    }
    bool operator()(const std::pair<std::string_view, int>& a, const Key& b) const {
      return a < view(b);
    }
  };
  /// One rank's accounting stream: its live+resident bytes and their
  /// high-water mark (a transient charge counts for its instant).
  struct Stream {
    std::uint64_t live = 0;
    std::uint64_t high_water = 0;
    void grow(std::uint64_t bytes) {
      live += bytes;
      high_water = std::max(high_water, live);
    }
  };
  struct Cell {
    Stream* stream = nullptr;  // the cell's rank's, in streams_
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t bytes_total = 0;
    std::uint64_t live = 0;
    std::uint64_t peak = 0;
    std::uint64_t waste = 0;
    std::uint64_t resident = 0;
    std::uint64_t resident_peak = 0;
    std::uint64_t retained = 0;
    bool workspace = false;
  };

  Cell& cell(std::string_view tag);  // caller holds mutex_

  telemetry::Tracer* const tracer_;
  std::atomic<bool> armed_{true};
  std::atomic<std::uint64_t> live_total_{0};
  mutable std::mutex mutex_;
  std::map<Key, Cell, KeyLess> cells_;
  std::map<int, Stream> streams_;  // keyed by RankScope; nodes never move
  std::vector<EpochSnapshot> timeline_;
  std::uint64_t timeline_dropped_ = 0;
  std::uint64_t level_resets_ = 0;
  std::uint64_t slack_bytes_ = 0;
};

}  // namespace gala::memtrace
