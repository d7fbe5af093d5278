#include "gala/resilience/fault_injection.hpp"

#include <fstream>
#include <sstream>

#include "gala/common/json.hpp"
#include "gala/common/prng.hpp"

namespace gala::resilience {

std::string to_string(FaultSite site) {
  switch (site) {
    case FaultSite::KernelLaunch:
      return "kernel-launch";
    case FaultSite::SharedAlloc:
      return "shared-alloc";
    case FaultSite::ScratchGrow:
      return "scratch-grow";
    case FaultSite::CollectiveDrop:
      return "collective-drop";
    case FaultSite::CollectiveTimeout:
      return "collective-timeout";
    case FaultSite::CollectiveCorrupt:
      return "collective-corrupt";
    case FaultSite::BudgetShrink:
      return "budget-shrink";
  }
  return "?";
}

FaultSite fault_site_from_string(std::string_view name) {
  if (name == "kernel-launch") return FaultSite::KernelLaunch;
  if (name == "shared-alloc") return FaultSite::SharedAlloc;
  if (name == "scratch-grow") return FaultSite::ScratchGrow;
  if (name == "collective-drop") return FaultSite::CollectiveDrop;
  if (name == "collective-timeout") return FaultSite::CollectiveTimeout;
  if (name == "collective-corrupt") return FaultSite::CollectiveCorrupt;
  if (name == "budget-shrink") return FaultSite::BudgetShrink;
  GALA_CHECK(false, "unknown fault site '" << std::string(name)
                                           << "' (kernel-launch|shared-alloc|scratch-grow|"
                                              "collective-drop|collective-timeout|"
                                              "collective-corrupt|budget-shrink)");
}

FaultPlan FaultPlan::from_json(std::string_view text) {
  const JsonValue doc = parse_json(text);
  GALA_CHECK(doc.is_object(), "fault plan must be a JSON object");
  FaultPlan plan;
  if (const JsonValue* seed = doc.find("seed")) {
    GALA_CHECK(seed->is_number() && seed->number >= 0, "fault plan 'seed' must be a non-negative number");
    plan.seed = static_cast<std::uint64_t>(seed->number);
  }
  const JsonValue& rules = doc.at("rules");
  GALA_CHECK(rules.is_array(), "fault plan 'rules' must be an array");
  for (const JsonValue& r : rules.array) {
    GALA_CHECK(r.is_object(), "fault rule must be a JSON object");
    FaultRule rule;
    rule.site = fault_site_from_string(r.at("site").string);
    if (const JsonValue* v = r.find("label")) rule.label = v->string;
    if (const JsonValue* v = r.find("rank")) rule.rank = static_cast<int>(v->number);
    if (const JsonValue* v = r.find("probability")) {
      GALA_CHECK(v->is_number() && v->number >= 0.0 && v->number <= 1.0,
                 "fault rule 'probability' must be in [0, 1]");
      rule.probability = v->number;
    }
    if (const JsonValue* v = r.find("skip_first")) {
      GALA_CHECK(v->is_number() && v->number >= 0, "fault rule 'skip_first' must be >= 0");
      rule.skip_first = static_cast<int>(v->number);
    }
    if (const JsonValue* v = r.find("max_fires")) {
      rule.max_fires = static_cast<int>(v->number);
    }
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  std::ifstream in(path);
  GALA_CHECK(in.is_open(), "cannot open fault plan: " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(buf.str());
}

std::string FaultPlan::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("seed").value(static_cast<std::uint64_t>(seed));
  w.key("rules").begin_array();
  for (const FaultRule& r : rules) {
    w.begin_object();
    w.key("site").value(to_string(r.site));
    if (!r.label.empty()) w.key("label").value(r.label);
    if (r.rank >= 0) w.key("rank").value(r.rank);
    w.key("probability").value(r.probability);
    if (r.skip_first > 0) w.key("skip_first").value(r.skip_first);
    if (r.max_fires >= 0) w.key("max_fires").value(r.max_fires);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void FaultInjector::arm(FaultPlan plan) {
  std::lock_guard lock(mutex_);
  plan_ = std::move(plan);
  hits_.assign(plan_.rules.size(), 0);
  fired_.assign(plan_.rules.size(), 0);
  fires_.store(0, std::memory_order_relaxed);
  armed_.store(!plan_.rules.empty(), std::memory_order_relaxed);
}

bool FaultInjector::should_fire(FaultSite site, std::string_view label, int rank,
                                FaultRule* fired_rule) {
  if (!armed()) return false;
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.site != site) continue;
    if (!rule.label.empty() && label.find(rule.label) == std::string_view::npos) continue;
    if (rule.rank >= 0 && rank >= 0 && rule.rank != rank) continue;
    const std::uint64_t hit = hits_[i]++;
    if (hit < static_cast<std::uint64_t>(rule.skip_first)) continue;
    if (rule.max_fires >= 0 && fired_[i] >= static_cast<std::uint64_t>(rule.max_fires)) continue;
    if (rule.probability < 1.0) {
      // Counter-based seeded coin: deterministic for a fixed (seed, rule, hit).
      const std::uint64_t h = splitmix64(plan_.seed ^ (i * 0x9e3779b97f4a7c15ULL) ^ hit);
      if (static_cast<double>(h >> 11) * 0x1.0p-53 >= rule.probability) continue;
    }
    ++fired_[i];
    const std::uint64_t total = fires_.fetch_add(1, std::memory_order_relaxed) + 1;
    flight_.record(telemetry::FlightKind::FaultFire, static_cast<double>(static_cast<int>(site)),
                   static_cast<double>(total), rank);
    if (fired_rule != nullptr) *fired_rule = rule;
    return true;
  }
  return false;
}

void FaultInjector::inject_throw(FaultSite site, std::string_view label) {
  if (!should_fire(site, label)) return;
  switch (site) {
    case FaultSite::SharedAlloc:
      GALA_THROW(ResourceExhausted, "injected fault [shared-alloc] at '" << std::string(label)
                                                                         << "': shared-memory "
                                                                            "arena exhausted");
    case FaultSite::ScratchGrow:
      GALA_THROW(ResourceExhausted, "injected fault [scratch-grow] at '" << std::string(label)
                                                                         << "': global scratch "
                                                                            "exhausted");
    default:
      GALA_THROW(TransientFault,
                 "injected fault [" << to_string(site) << "] at '" << std::string(label) << "'");
  }
}

}  // namespace gala::resilience
