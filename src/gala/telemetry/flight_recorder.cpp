#include "gala/telemetry/flight_recorder.hpp"

#include <algorithm>
#include <bit>

#include "gala/common/json.hpp"
#include "gala/telemetry/telemetry.hpp"

namespace gala::telemetry {
namespace {

/// Event metadata packed into one ring word: kind in bits [0,16), dense
/// thread id in [16,32), rank (as a two's-complement 32-bit value) above.
std::uint64_t pack_meta(FlightKind kind, std::uint32_t tid, std::int32_t rank) {
  return static_cast<std::uint64_t>(static_cast<std::uint16_t>(kind)) |
         (static_cast<std::uint64_t>(tid & 0xffffu) << 16) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 32);
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 8;
  while (p < v) p <<= 1;
  return p;
}

std::uint64_t pack_config(std::uint32_t generation, std::size_t depth) {
  return (static_cast<std::uint64_t>(generation) << 32) | static_cast<std::uint64_t>(depth);
}

}  // namespace

const char* to_string(FlightKind kind) {
  switch (kind) {
    case FlightKind::LevelBegin:
      return "level-begin";
    case FlightKind::IterationBegin:
      return "iter-begin";
    case FlightKind::Prune:
      return "prune";
    case FlightKind::Decide:
      return "decide";
    case FlightKind::Apply:
      return "apply";
    case FlightKind::IterationEnd:
      return "iter-end";
    case FlightKind::SyncPost:
      return "sync-post";
    case FlightKind::SyncComplete:
      return "sync-complete";
    case FlightKind::FaultFire:
      return "fault-fire";
    case FlightKind::Retry:
      return "retry";
    case FlightKind::SequentialFallback:
      return "sequential-fallback";
    case FlightKind::Rollback:
      return "rollback";
    case FlightKind::ValidatorFail:
      return "validator-fail";
    case FlightKind::WorkspaceAlloc:
      return "ws-alloc";
    case FlightKind::HealthStall:
      return "health-stall";
    case FlightKind::HealthOscillation:
      return "health-oscillation";
    case FlightKind::GovernorRung:
      return "governor-rung";
    case FlightKind::GovernorShrink:
      return "governor-shrink";
    case FlightKind::HashtableFallback:
      return "hashtable-fallback";
    case FlightKind::SyncFallbackDense:
      return "sync-fallback-dense";
  }
  return "?";
}

/// One thread's ring: 4 atomic words per event slot, written relaxed by the
/// owning thread only, read concurrently by drain(). `config` remembers the
/// recorder configuration the ring was built under, so a depth change or
/// reset retires it (the owner re-registers on its next append).
struct FlightRecorder::Ring {
  Ring(std::uint64_t recorder_in, std::size_t cap, std::uint32_t tid_in, std::uint64_t config_in)
      : recorder(recorder_in),
        capacity(cap),
        mask(cap - 1),
        tid(tid_in),
        config(config_in),
        words(std::make_unique<std::atomic<std::uint64_t>[]>(4 * cap)) {}

  const std::uint64_t recorder;  ///< the owning recorder's id
  const std::size_t capacity;
  const std::size_t mask;
  const std::uint32_t tid;
  const std::uint64_t config;
  std::atomic<std::uint64_t> head{0};  ///< events ever pushed to this ring
  std::unique_ptr<std::atomic<std::uint64_t>[]> words;

  void push(std::uint64_t seq, FlightKind kind, std::int32_t rank, double a, double b) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    std::atomic<std::uint64_t>* w = words.get() + 4 * (h & mask);
    w[0].store(seq, std::memory_order_relaxed);
    w[1].store(pack_meta(kind, tid, rank), std::memory_order_relaxed);
    w[2].store(std::bit_cast<std::uint64_t>(a), std::memory_order_relaxed);
    w[3].store(std::bit_cast<std::uint64_t>(b), std::memory_order_relaxed);
    head.store(h + 1, std::memory_order_release);
  }
};

FlightRecorder::FlightRecorder()
    : id_([] {
        static std::atomic<std::uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()),
      config_(pack_config(1, kDefaultDepth)) {}

void FlightRecorder::set_depth(std::size_t events) {
  const std::size_t depth = round_up_pow2(events);
  std::lock_guard lock(mutex_);
  const std::uint64_t cfg = config_.load(std::memory_order_relaxed);
  config_.store(pack_config(static_cast<std::uint32_t>(cfg >> 32) + 1, depth),
                std::memory_order_relaxed);
  rings_.clear();  // abandoned; owners re-register against the new config
}

std::size_t FlightRecorder::depth() const {
  return static_cast<std::size_t>(config_.load(std::memory_order_relaxed) & 0xffffffffu);
}

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() {
  // One cached ring per recorder this thread appends to, so a pool worker
  // serving two live run scopes keeps a ring in each instead of registering
  // a new one on every switch.
  thread_local std::vector<std::shared_ptr<Ring>> cache;
  const std::uint64_t cfg = config_.load(std::memory_order_relaxed);
  for (const auto& ring : cache) {
    if (ring->recorder == id_ && ring->config == cfg) return ring.get();
  }
  // Drop this recorder's retired ring, and every ring only the cache still
  // holds: its recorder is gone.
  std::erase_if(cache, [this](const auto& ring) {
    return ring->recorder == id_ || ring.use_count() == 1;
  });
  std::lock_guard lock(mutex_);
  // Build against the config as it stands under the lock, so a concurrent
  // set_depth cannot leave a freshly-registered ring orphaned.
  const std::uint64_t now = config_.load(std::memory_order_relaxed);
  cache.push_back(std::make_shared<Ring>(id_, static_cast<std::size_t>(now & 0xffffffffu),
                                         next_tid_.fetch_add(1, std::memory_order_relaxed), now));
  rings_.push_back(cache.back());
  return cache.back().get();
}

void FlightRecorder::append(FlightKind kind, double a, double b, int rank) {
  Ring* ring = ring_for_this_thread();
  if (rank < 0) rank = RankScope::current();
  // Counted before the push, so a drained event's kind total already holds it.
  counts_[static_cast<std::size_t>(kind)].fetch_add(1, std::memory_order_relaxed);
  ring->push(clock_.fetch_add(1, std::memory_order_relaxed), kind,
             static_cast<std::int32_t>(rank), a, b);
}

std::vector<FlightEvent> FlightRecorder::drain() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard lock(mutex_);
    rings = rings_;
  }
  std::vector<FlightEvent> out;
  std::vector<std::uint64_t> slots;  // push index of each copied event
  for (const auto& ring : rings) {
    const std::uint64_t cap = ring->capacity;
    const std::uint64_t h1 = ring->head.load(std::memory_order_acquire);
    const std::uint64_t first = h1 > cap ? h1 - cap : 0;
    slots.clear();
    const std::size_t start = out.size();
    for (std::uint64_t i = first; i < h1; ++i) {
      const std::atomic<std::uint64_t>* w = ring->words.get() + 4 * (i & ring->mask);
      FlightEvent e;
      e.seq = w[0].load(std::memory_order_relaxed);
      const std::uint64_t meta = w[1].load(std::memory_order_relaxed);
      e.kind = static_cast<FlightKind>(meta & 0xffffu);
      e.tid = static_cast<std::uint16_t>((meta >> 16) & 0xffffu);
      e.rank = static_cast<std::int32_t>(static_cast<std::uint32_t>(meta >> 32));
      e.a = std::bit_cast<double>(w[2].load(std::memory_order_relaxed));
      e.b = std::bit_cast<double>(w[3].load(std::memory_order_relaxed));
      out.push_back(e);
      slots.push_back(i);
    }
    // The owner may have kept appending during the copy; any slot it could
    // have lapped is dropped instead of surfacing a torn event.
    const std::uint64_t h2 = ring->head.load(std::memory_order_acquire);
    const std::uint64_t min_valid = h2 > cap ? h2 - cap : 0;
    std::size_t keep = start;
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (slots[k] >= min_valid) out[keep++] = out[start + k];
    }
    out.resize(keep);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& x, const FlightEvent& y) { return x.seq < y.seq; });
  return out;
}

void FlightRecorder::reset() {
  std::lock_guard lock(mutex_);
  const std::uint64_t cfg = config_.load(std::memory_order_relaxed);
  config_.store(pack_config(static_cast<std::uint32_t>(cfg >> 32) + 1, cfg & 0xffffffffu),
                std::memory_order_relaxed);
  rings_.clear();
  clock_.store(0, std::memory_order_relaxed);
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
}

std::string FlightRecorder::json(std::string_view reason, std::size_t last_n) const {
  std::vector<FlightEvent> events = drain();
  const std::uint64_t total = recorded();
  const std::uint64_t dropped = total >= events.size() ? total - events.size() : 0;
  if (last_n > 0 && events.size() > last_n) {
    events.erase(events.begin(), events.end() - static_cast<std::ptrdiff_t>(last_n));
  }
  JsonWriter w;
  w.begin_object();
  w.key("flight_schema").value(static_cast<std::uint64_t>(kSchema));
  w.key("reason").value(std::string(reason));
  w.key("depth").value(static_cast<std::uint64_t>(depth()));
  w.key("recorded").value(total);
  w.key("dropped").value(dropped);
  w.key("counts").begin_object();
  for (std::size_t k = 1; k < kFlightKinds; ++k) {
    const FlightKind kind = static_cast<FlightKind>(k);
    if (const std::uint64_t n = count(kind); n > 0) w.key(to_string(kind)).value(n);
  }
  w.end_object();
  w.key("events").begin_array();
  for (const FlightEvent& e : events) {
    w.begin_object();
    w.key("seq").value(e.seq);
    w.key("kind").value(to_string(e.kind));
    w.key("tid").value(static_cast<std::uint64_t>(e.tid));
    w.key("rank").value(static_cast<double>(e.rank));
    w.key("a").value(e.a);
    w.key("b").value(e.b);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace gala::telemetry
