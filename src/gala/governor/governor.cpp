#include "gala/governor/governor.hpp"

#include <algorithm>

namespace gala::governor {

namespace {

// Escalation thresholds, as projected-utilisation fractions. Rungs 2-4 only
// shrink *future* allocations, so they must engage below the wall; only the
// floor waits for an actual overrun.
constexpr double kReclaimAt = 0.80;
constexpr double kGlobalOnlyAt = 0.85;
constexpr double kSparseAt = 0.90;
constexpr double kChunkAt = 0.95;

std::string_view subsystem_of(std::string_view tag) {
  const auto dot = tag.find('.');
  return dot == std::string_view::npos ? tag : tag.substr(0, dot);
}

}  // namespace

const char* to_string(Rung rung) {
  switch (rung) {
    case Rung::None:
      return "none";
    case Rung::ReclaimSlabs:
      return "reclaim-slabs";
    case Rung::GlobalOnlyHash:
      return "global-only-hash";
    case Rung::SparseSync:
      return "sparse-sync";
    case Rung::ChunkedFrontier:
      return "chunked-frontier";
    case Rung::HostFallback:
      return "host-fallback";
  }
  return "?";
}

void Governor::install(BudgetConfig config) {
  {
    std::lock_guard lock(mutex_);
    subsystem_caps_ = std::move(config.subsystem_caps);
  }
  total_.store(config.total_bytes, std::memory_order_relaxed);
  initial_total_.store(config.total_bytes, std::memory_order_relaxed);
  chunk_.store(config.frontier_chunk > 0 ? config.frontier_chunk : 4096,
               std::memory_order_relaxed);
  // Modeled live bytes are the enforcement input, so the registry must be
  // accounting while a budget is in force.
  memory_.arm();
  enabled_.store(true, std::memory_order_relaxed);
}

std::uint64_t Governor::admit(std::string_view tag, std::uint64_t bytes, bool may_throw) {
  if (!enabled()) return 0;
  admits_.fetch_add(1, std::memory_order_relaxed);
  maybe_shrink(tag);
  const std::uint64_t budget = total_.load(std::memory_order_relaxed);
  // Charge first, decide second: a concurrent admission projects these
  // bytes too, so two ranks can never both fit into the same headroom.
  const std::uint64_t projected = memory_.reserve(bytes);
  // total 0 = unlimited: observe only — but subsystem caps still enforce.
  double util = budget == 0 ? 0.0
                            : static_cast<double>(projected) / static_cast<double>(budget);
  bool over = budget != 0 && projected > budget;
  {
    std::lock_guard lock(mutex_);
    if (!subsystem_caps_.empty()) {
      const std::string_view subsys = subsystem_of(tag);
      for (const auto& [name, cap] : subsystem_caps_) {
        if (name != subsys || cap == 0) continue;
        const std::uint64_t sub_projected = memory_.live_subsystem(subsys) + bytes;
        util = std::max(util, static_cast<double>(sub_projected) / static_cast<double>(cap));
        over = over || sub_projected > cap;
      }
    }
  }

  if (util >= kReclaimAt) escalate_to(Rung::ReclaimSlabs, projected, budget);
  if (util >= kGlobalOnlyAt) escalate_to(Rung::GlobalOnlyHash, projected, budget);
  if (util >= kSparseAt) escalate_to(Rung::SparseSync, projected, budget);
  if (util >= kChunkAt) escalate_to(Rung::ChunkedFrontier, projected, budget);

  if (!over) return bytes;
  // Last-ditch host-side reclaim; the modeled charge is unchanged, but a
  // trimmed pool means the refusal below never strands idle host memory.
  run_reclaimers();
  denials_.fetch_add(1, std::memory_order_relaxed);
  if (!may_throw) return bytes;  // charges/gauges escalate but never throw mid-flight
  memory_.release(bytes);  // refused: the bytes never go live
  escalate_to(Rung::HostFallback, projected, budget);
  GALA_THROW(ResourceExhausted, "memory budget exceeded: '"
                                    << std::string(tag) << "' needs " << bytes
                                    << " B, projected " << projected << " B > budget " << budget
                                    << " B (governor rung " << to_string(rung()) << ")");
}

void Governor::escalate_to(Rung target, std::uint64_t projected, std::uint64_t budget) {
  const auto t = static_cast<std::uint8_t>(target);
  if (rung_.load(std::memory_order_relaxed) >= t) return;
  {
    // Rung store, transition record, and flight event form ONE critical
    // section: concurrent escalations serialise here, so flight sequence
    // numbers are assigned in rung order and trace_check's flight-section
    // monotonicity check holds even when ranks race up the ladder.
    std::lock_guard lock(mutex_);
    if (rung_.load(std::memory_order_relaxed) >= t) return;
    rung_.store(t, std::memory_order_relaxed);
    transitions_.push_back({target, projected, budget});
    flight_.record(telemetry::FlightKind::GovernorRung, static_cast<double>(t),
                   static_cast<double>(projected));
  }
  if (target == Rung::ReclaimSlabs) run_reclaimers();
}

std::uint64_t Governor::run_reclaimers() {
  std::uint64_t freed = 0;
  {
    // Reclaimers are invoked while holding mutex_: unregister_reclaimer()
    // takes the same lock, so a context tearing down blocks until any
    // in-flight invocation of its reclaimer has drained and the captured
    // `this` can never dangle. The callbacks only trim pool free lists and
    // never re-enter the governor, so holding the lock across them is safe.
    std::lock_guard lock(mutex_);
    for (const auto& [key, fn] : reclaimers_) freed += fn();
  }
  reclaims_.fetch_add(1, std::memory_order_relaxed);
  reclaimed_bytes_.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

void Governor::maybe_shrink(std::string_view tag) {
  if (!faults_.armed()) return;
  if (!faults_.should_fire(resilience::FaultSite::BudgetShrink, tag)) return;
  const std::uint64_t cur = total_.load(std::memory_order_relaxed);
  if (cur == 0) return;
  // Cut to half, but never below what is already live: the shrink models an
  // external reservation landing, not a demand to evict held memory.
  shrink_budget(std::max(memory_.live_total(), cur / 2));
}

void Governor::shrink_budget(std::uint64_t new_total) {
  if (new_total == 0) new_total = 1;  // 0 would mean unlimited; a shrink keeps enforcement on
  std::uint64_t cur = total_.load(std::memory_order_relaxed);
  do {
    if (cur == 0 || new_total >= cur) return;
  } while (!total_.compare_exchange_weak(cur, new_total, std::memory_order_relaxed));
  shrinks_.fetch_add(1, std::memory_order_relaxed);
  flight_.record(telemetry::FlightKind::GovernorShrink, static_cast<double>(new_total),
                 static_cast<double>(cur));
}

void Governor::register_reclaimer(const void* key, std::function<std::uint64_t()> fn) {
  std::lock_guard lock(mutex_);
  reclaimers_.emplace_back(key, std::move(fn));
}

void Governor::unregister_reclaimer(const void* key) {
  std::lock_guard lock(mutex_);
  reclaimers_.erase(std::remove_if(reclaimers_.begin(), reclaimers_.end(),
                                   [key](const auto& r) { return r.first == key; }),
                    reclaimers_.end());
}

void Governor::append_json(JsonWriter& w) const {
  w.key("budget_total").value(total_.load(std::memory_order_relaxed));
  w.key("budget_initial").value(initial_total_.load(std::memory_order_relaxed));
  const Rung r = rung();
  w.key("rung").value(to_string(r));
  w.key("rung_ordinal").value(static_cast<std::uint64_t>(r));
  w.key("admits").value(admits());
  w.key("denials").value(denials());
  w.key("shrinks").value(shrinks());
  w.key("reclaims").value(reclaims());
  w.key("reclaimed_bytes").value(reclaimed_bytes());
  w.key("frontier_chunk").value(static_cast<std::uint64_t>(chunk_.load(std::memory_order_relaxed)));
  std::lock_guard lock(mutex_);
  w.key("subsystem_caps").begin_array();
  for (const auto& [name, cap] : subsystem_caps_) {
    w.begin_object();
    w.key("name").value(name);
    w.key("cap").value(cap);
    w.end_object();
  }
  w.end_array();
  w.key("transitions").begin_array();
  for (const RungTransition& t : transitions_) {
    w.begin_object();
    w.key("rung").value(to_string(t.rung));
    w.key("ordinal").value(static_cast<std::uint64_t>(t.rung));
    w.key("projected").value(t.projected);
    w.key("budget").value(t.budget);
    w.end_object();
  }
  w.end_array();
}

std::uint64_t min_feasible_budget(std::uint64_t hi,
                                  const std::function<bool(std::uint64_t)>& feasible,
                                  std::uint64_t granularity) {
  if (granularity == 0) granularity = 1;
  std::uint64_t hi_k = std::max<std::uint64_t>(1, (hi + granularity - 1) / granularity);
  if (!feasible(hi_k * granularity)) {
    GALA_THROW(Error, "no feasible memory budget: even the ceiling of "
                          << hi_k * granularity << " B (hi " << hi
                          << " B rounded up to a granule) is infeasible");
  }
  if (feasible(granularity)) return granularity;
  std::uint64_t lo_k = 1;  // known infeasible; hi_k known feasible
  while (hi_k - lo_k > 1) {
    const std::uint64_t mid = lo_k + (hi_k - lo_k) / 2;
    if (feasible(mid * granularity)) {
      hi_k = mid;
    } else {
      lo_k = mid;
    }
  }
  return hi_k * granularity;
}

}  // namespace gala::governor
