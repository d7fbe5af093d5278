// Validates the JSON the gala CLI writes. Exits 0 when every check holds and
// 1 on any failure, so CI can gate on it. The file's shape picks the checks:
//
//   Chrome trace ({"traceEvents":[...]}, detect --trace-out): every event has
//     a name, ph and ts, and flow events ("s"/"f") pair up by id, one arrow
//     per id.
//   Run report ({"report_schema":1,...}, detect --report-out or a supervisor
//     post-mortem): only known sections, each an object, and every section
//     present is checked:
//     metrics  a spans object; counters non-negative; histogram buckets with
//              strictly increasing lower bounds and positive counts that sum
//              to the histogram count; p50 <= p95 <= p99.
//     profile  profile_schema, ceilings, and a kernels array with
//              non-negative counters, efficiencies in [0, 1],
//              bank_conflict_factor >= 1 and strictly increasing
//              probe-histogram lengths.
//     flight   flight_schema and events carrying seq/kind/tid/rank/a/b with a
//              strictly increasing seq clock (the cross-thread total order);
//              governor-rung events carry the rung ordinal in 'a', and the
//              ladder is escalate-only, so the ordinals never decrease.
//     health   health_schema, per-level diagnostics whose series arrays match
//              the iteration count, churn in [0, 1], and a summary consistent
//              with the per-level entries.
//     mem      mem_schema, per-subsystem byte accounting with live <= peak,
//              totals with peak_live_bytes <= peak_total_bytes and frag_pct
//              in [0, 100], a consistent leak_check, and a residency
//              timeline whose entry totals equal their subsystem sums and
//              never exceed peak_live_bytes.
//
// Usage:
//   trace_check <file.json> [--require NAME]... [--ranks N] [--budget BYTES]
//
//   --require NAME  fail unless a name containing NAME (substring) is
//                   present. Repeatable. A Chrome trace takes a bare span
//                   name; a run report takes SECTION:NAME, where SECTION is
//                   metrics (span "category/name" keys), profile (kernel
//                   names), flight (event kinds) or mem (subsystem and tag
//                   names).
//   --ranks N       require spans on at least N distinct rank tracks
//                   (pid > 0) of a Chrome trace, or events from at least N
//                   distinct ranks >= 0 in a report's flight section.
//   --budget BYTES  require a report's mem section to respect a governor
//                   budget: every residency-timeline epoch total and the
//                   peak_live_bytes high-water (the bytes ever live at once,
//                   which is what a budget caps) must be <= BYTES.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gala/common/error.hpp"
#include "gala/common/json.hpp"

namespace {

bool fail(const std::string& file, const std::string& message) {
  std::fprintf(stderr, "trace_check: %s: %s\n", file.c_str(), message.c_str());
  return false;
}

/// A member that, when present, must be a non-negative number.
bool check_nonneg(const gala::JsonValue& obj, const char* key, const std::string& file,
                  const std::string& where) {
  const gala::JsonValue* v = obj.find(key);
  if (v == nullptr) return true;
  if (!v->is_number() || v->number < 0) {
    return fail(file, where + ": '" + key + "' is not a non-negative number");
  }
  return true;
}

/// Fails unless some name contains each `required` string.
bool check_required(const std::set<std::string>& names, const std::vector<std::string>& required,
                    const std::string& file, const std::string& noun) {
  for (const auto& want : required) {
    bool found = false;
    for (const auto& name : names) found = found || name.find(want) != std::string::npos;
    if (!found) return fail(file, "required " + noun + " '" + want + "' not found");
  }
  return true;
}

/// metrics: span summary and registry shape — a spans object, counters
/// non-negative, histogram buckets monotone in lo with positive counts,
/// percentiles ordered.
bool check_metrics(const gala::JsonValue& doc, const std::string& file) {
  const gala::JsonValue* spans = doc.find("spans");
  if (spans == nullptr || !spans->is_object()) return fail(file, "no spans object");
  const gala::JsonValue* counters = doc.find("counters");
  if (counters == nullptr || !counters->is_object()) return fail(file, "no counters object");
  for (const auto& [name, v] : counters->object) {
    if (!v.is_number() || v.number < 0) {
      return fail(file, "counter '" + name + "' is not a non-negative number");
    }
  }
  const gala::JsonValue* histograms = doc.find("histograms");
  if (histograms == nullptr || !histograms->is_object()) {
    return fail(file, "no histograms object");
  }
  for (const auto& [name, h] : histograms->object) {
    const std::string where = "histogram '" + name + "'";
    const gala::JsonValue* buckets = h.find("buckets");
    if (buckets == nullptr || !buckets->is_array()) {
      return fail(file, where + ": no buckets array");
    }
    double prev_lo = -1;
    double bucket_total = 0;
    for (const auto& b : buckets->array) {
      const gala::JsonValue* lo = b.find("lo");
      const gala::JsonValue* count = b.find("count");
      if (lo == nullptr || count == nullptr || !lo->is_number() || !count->is_number()) {
        return fail(file, where + ": malformed bucket");
      }
      if (lo->number <= prev_lo) {
        return fail(file, where + ": bucket lower bounds are not strictly increasing");
      }
      if (count->number <= 0) {
        return fail(file, where + ": exported bucket with non-positive count");
      }
      prev_lo = lo->number;
      bucket_total += count->number;
    }
    const gala::JsonValue* count = h.find("count");
    if (count == nullptr || !count->is_number() || count->number != bucket_total) {
      return fail(file, where + ": count does not equal the bucket-count total");
    }
    const gala::JsonValue* p50 = h.find("p50");
    const gala::JsonValue* p95 = h.find("p95");
    const gala::JsonValue* p99 = h.find("p99");
    if (p50 == nullptr || p95 == nullptr || p99 == nullptr) {
      return fail(file, where + ": missing percentile summaries");
    }
    if (!(p50->number <= p95->number && p95->number <= p99->number)) {
      return fail(file, where + ": percentiles are not ordered (p50 <= p95 <= p99)");
    }
  }
  return true;
}

/// profile: per-kernel profile shape and counter sanity.
bool check_profile(const gala::JsonValue& doc, const std::string& file) {
  const gala::JsonValue* schema = doc.find("profile_schema");
  if (schema == nullptr || !schema->is_number()) {
    return fail(file, "no profile_schema");
  }
  const gala::JsonValue* ceilings = doc.find("ceilings");
  if (ceilings == nullptr || !ceilings->is_object()) return fail(file, "no ceilings object");
  if (!check_nonneg(*ceilings, "dram_gbps", file, "ceilings") ||
      !check_nonneg(*ceilings, "peak_gops", file, "ceilings")) {
    return false;
  }
  const gala::JsonValue* kernels = doc.find("kernels");
  if (kernels == nullptr || !kernels->is_array()) return fail(file, "no kernels array");
  for (const auto& k : kernels->array) {
    const gala::JsonValue* name = k.find("name");
    if (name == nullptr || !name->is_string()) return fail(file, "kernel without a name");
    const std::string where = "kernel '" + name->string + "'";
    for (const char* key : {"launches", "blocks", "modeled_cycles", "modeled_ms"}) {
      const gala::JsonValue* v = k.find(key);
      if (v == nullptr) return fail(file, where + ": missing '" + key + "'");
      if (!v->is_number() || v->number < 0) {
        return fail(file, where + ": '" + key + "' is not a non-negative number");
      }
    }
    const gala::JsonValue* counters = k.find("counters");
    if (counters == nullptr || !counters->is_object()) {
      return fail(file, where + ": no counters object");
    }
    for (const auto& [cname, v] : counters->object) {
      if (!v.is_number() || v.number < 0) {
        return fail(file, where + ": counter '" + cname + "' is not a non-negative number");
      }
    }
    for (const char* key : {"coalescing_efficiency", "divergence_efficiency"}) {
      const gala::JsonValue* v = k.find(key);
      if (v == nullptr || !v->is_number() || v->number < 0 || v->number > 1.0) {
        return fail(file, where + ": '" + key + "' is not in [0, 1]");
      }
    }
    const gala::JsonValue* bcf = k.find("bank_conflict_factor");
    if (bcf == nullptr || !bcf->is_number() || bcf->number < 1.0) {
      return fail(file, where + ": bank_conflict_factor below 1");
    }
    if (const gala::JsonValue* ht = k.find("hashtable")) {
      const gala::JsonValue* hist = ht->find("probe_hist");
      if (hist == nullptr || !hist->is_array()) {
        return fail(file, where + ": hashtable without probe_hist");
      }
      double prev_len = 0;
      for (const auto& b : hist->array) {
        const gala::JsonValue* len = b.find("len");
        const gala::JsonValue* count = b.find("count");
        if (len == nullptr || count == nullptr || !len->is_number() || !count->is_number()) {
          return fail(file, where + ": malformed probe_hist bucket");
        }
        if (len->number <= prev_len) {
          return fail(file, where + ": probe_hist lengths are not strictly increasing");
        }
        if (count->number <= 0) {
          return fail(file, where + ": probe_hist bucket with non-positive count");
        }
        prev_len = len->number;
      }
    }
    const gala::JsonValue* roofline = k.find("roofline");
    if (roofline == nullptr || !roofline->is_object()) {
      return fail(file, where + ": no roofline object");
    }
    if (!check_nonneg(*roofline, "dram_bytes", file, where) ||
        !check_nonneg(*roofline, "arithmetic_intensity", file, where) ||
        !check_nonneg(*roofline, "achieved_gops", file, where)) {
      return false;
    }
  }
  return true;
}

/// flight: post-mortem window shape — schema, event fields, the global
/// monotonic event clock, and the escalate-only governor ladder.
bool check_flight(const gala::JsonValue& doc, const std::string& file, int want_ranks) {
  const gala::JsonValue* schema = doc.find("flight_schema");
  if (schema == nullptr || !schema->is_number()) {
    return fail(file, "no flight_schema");
  }
  const gala::JsonValue* reason = doc.find("reason");
  if (reason == nullptr || !reason->is_string()) return fail(file, "no reason string");
  if (!check_nonneg(doc, "depth", file, "dump") || !check_nonneg(doc, "recorded", file, "dump") ||
      !check_nonneg(doc, "dropped", file, "dump")) {
    return false;
  }
  const gala::JsonValue* events = doc.find("events");
  if (events == nullptr || !events->is_array()) return fail(file, "no events array");
  double prev_seq = -1;
  double prev_rung = -1;
  std::set<int> ranks;
  for (const auto& e : events->array) {
    for (const char* key : {"seq", "tid", "a", "b"}) {
      const gala::JsonValue* v = e.find(key);
      if (v == nullptr || !v->is_number()) {
        return fail(file, std::string("event missing numeric '") + key + "'");
      }
    }
    const gala::JsonValue* kind = e.find("kind");
    if (kind == nullptr || !kind->is_string() || kind->string.empty()) {
      return fail(file, "event without a kind");
    }
    const gala::JsonValue* rank = e.find("rank");
    if (rank == nullptr || !rank->is_number()) return fail(file, "event without a rank");
    if (rank->number >= 0) ranks.insert(static_cast<int>(rank->number));
    const double seq = e.at("seq").number;
    if (seq <= prev_seq) {
      return fail(file, "event clock is not strictly increasing (seq " +
                            std::to_string(seq) + " after " + std::to_string(prev_seq) + ")");
    }
    prev_seq = seq;
    // The degradation ladder is escalate-only, so rung ordinals (payload 'a')
    // must never decrease within one dump.
    if (kind->string == "governor-rung") {
      const double rung = e.at("a").number;
      if (rung < prev_rung) {
        return fail(file, "governor-rung de-escalated (rung " +
                              std::to_string(static_cast<int>(rung)) + " after " +
                              std::to_string(static_cast<int>(prev_rung)) + ")");
      }
      prev_rung = rung;
    }
  }
  if (want_ranks > 0 && static_cast<int>(ranks.size()) < want_ranks) {
    return fail(file, "expected events from >= " + std::to_string(want_ranks) +
                          " ranks, saw " + std::to_string(ranks.size()));
  }
  return true;
}

/// health: health_schema-1 shape — config, per-level diagnostics
/// with series arrays matching the iteration count, and a summary whose
/// totals agree with the levels.
bool check_health(const gala::JsonValue& doc, const std::string& file) {
  const gala::JsonValue* schema = doc.find("health_schema");
  if (schema == nullptr || !schema->is_number()) {
    return fail(file, "no health_schema");
  }
  const gala::JsonValue* config = doc.find("config");
  if (config == nullptr || !config->is_object()) return fail(file, "no config object");
  for (const char* key : {"stall_epsilon", "stall_window"}) {
    const gala::JsonValue* v = config->find(key);
    if (v == nullptr || !v->is_number() || v->number < 0) {
      return fail(file, std::string("config: '") + key + "' is not a non-negative number");
    }
  }
  const gala::JsonValue* levels = doc.find("levels");
  if (levels == nullptr || !levels->is_array()) return fail(file, "no levels array");
  double total_iterations = 0;
  for (const auto& lv : levels->array) {
    const gala::JsonValue* level = lv.find("level");
    if (level == nullptr || !level->is_number()) return fail(file, "level without an index");
    const std::string where = "level " + std::to_string(static_cast<int>(level->number));
    const gala::JsonValue* iters = lv.find("iterations");
    if (iters == nullptr || !iters->is_number() || iters->number < 0) {
      return fail(file, where + ": 'iterations' is not a non-negative number");
    }
    total_iterations += iters->number;
    for (const char* key : {"vertices", "stall_iterations", "oscillating_vertices",
                            "oscillation_moves", "frontier_half_life"}) {
      if (!check_nonneg(lv, key, file, where)) return false;
    }
    const gala::JsonValue* stalled = lv.find("stalled");
    if (stalled == nullptr || stalled->type != gala::JsonValue::Type::Bool) {
      return fail(file, where + ": 'stalled' is not a boolean");
    }
    for (const char* key : {"churn_peak", "churn_mean"}) {
      const gala::JsonValue* v = lv.find(key);
      if (v == nullptr || !v->is_number() || v->number < 0 || v->number > 1.0) {
        return fail(file, where + ": '" + key + "' is not in [0, 1]");
      }
    }
    const gala::JsonValue* series = lv.find("series");
    if (series == nullptr || !series->is_object()) {
      return fail(file, where + ": no series object");
    }
    for (const char* key : {"modularity", "delta_q", "active", "moved", "flip_flops",
                            "ht_mean_probe_length"}) {
      const gala::JsonValue* arr = series->find(key);
      if (arr == nullptr || !arr->is_array()) {
        return fail(file, where + ": series '" + key + "' is not an array");
      }
      if (static_cast<double>(arr->array.size()) != iters->number) {
        return fail(file, where + ": series '" + key + "' has " +
                              std::to_string(arr->array.size()) + " entries for " +
                              std::to_string(static_cast<int>(iters->number)) + " iterations");
      }
    }
  }
  const gala::JsonValue* summary = doc.find("summary");
  if (summary == nullptr || !summary->is_object()) return fail(file, "no summary object");
  const gala::JsonValue* sum_levels = summary->find("levels");
  if (sum_levels == nullptr || !sum_levels->is_number() ||
      sum_levels->number != static_cast<double>(levels->array.size())) {
    return fail(file, "summary.levels does not equal the number of level entries");
  }
  const gala::JsonValue* sum_iters = summary->find("total_iterations");
  if (sum_iters == nullptr || !sum_iters->is_number() || sum_iters->number != total_iterations) {
    return fail(file, "summary.total_iterations does not equal the per-level sum");
  }
  return true;
}

/// mem: mem_schema-1 shape — per-subsystem gauges with live <= peak,
/// consistent totals, a leak_check section, and a well-formed timeline. With
/// `budget` > 0 the modeled footprint must respect it at every epoch.
bool check_mem(const gala::JsonValue& doc, const std::string& file, std::uint64_t budget) {
  const gala::JsonValue* schema = doc.find("mem_schema");
  if (schema == nullptr || !schema->is_number()) {
    return fail(file, "no mem_schema");
  }
  const gala::JsonValue* subsystems = doc.find("subsystems");
  if (subsystems == nullptr || !subsystems->is_array()) return fail(file, "no subsystems array");
  for (const auto& s : subsystems->array) {
    const gala::JsonValue* name = s.find("name");
    if (name == nullptr || !name->is_string()) return fail(file, "subsystem without a name");
    const std::string where = "subsystem '" + name->string + "'";
    for (const char* key : {"allocs", "bytes_total", "live", "peak", "waste", "resident",
                            "resident_peak"}) {
      const gala::JsonValue* v = s.find(key);
      if (v == nullptr || !v->is_number() || v->number < 0) {
        return fail(file, where + ": '" + key + "' is not a non-negative number");
      }
    }
    if (s.at("live").number > s.at("peak").number) {
      return fail(file, where + ": live exceeds peak");
    }
    if (s.at("resident").number > s.at("resident_peak").number) {
      return fail(file, where + ": resident exceeds resident_peak");
    }
    const gala::JsonValue* tags = s.find("tags");
    if (tags == nullptr || !tags->is_array() || tags->array.empty()) {
      return fail(file, where + ": no tags array");
    }
    for (const auto& t : tags->array) {
      const gala::JsonValue* tname = t.find("name");
      if (tname == nullptr || !tname->is_string()) {
        return fail(file, where + ": tag without a name");
      }
      for (const char* key : {"allocs", "frees", "live", "peak", "retained"}) {
        if (!check_nonneg(t, key, file, "tag '" + tname->string + "'")) return false;
      }
    }
  }
  const gala::JsonValue* totals = doc.find("totals");
  if (totals == nullptr || !totals->is_object()) return fail(file, "no totals object");
  for (const char* key : {"peak_ws_bytes", "peak_total_bytes", "peak_live_bytes", "live_bytes"}) {
    const gala::JsonValue* v = totals->find(key);
    if (v == nullptr || !v->is_number() || v->number < 0) {
      return fail(file, std::string("totals: '") + key + "' is not a non-negative number");
    }
  }
  if (totals->at("peak_ws_bytes").number > totals->at("peak_total_bytes").number) {
    return fail(file, "totals: peak_ws_bytes exceeds peak_total_bytes");
  }
  const gala::JsonValue* frag = totals->find("frag_pct");
  if (frag == nullptr || !frag->is_number() || frag->number < 0 || frag->number > 100.0) {
    return fail(file, "totals: frag_pct is not in [0, 100]");
  }
  // What was live at once can never exceed the sum of every tag's own peak.
  const double peak_live = totals->at("peak_live_bytes").number;
  if (peak_live > totals->at("peak_total_bytes").number) {
    return fail(file, "totals: peak_live_bytes exceeds peak_total_bytes");
  }
  if (budget > 0 && peak_live > static_cast<double>(budget)) {
    return fail(file, "totals: peak_live_bytes " +
                          std::to_string(static_cast<std::uint64_t>(peak_live)) +
                          " exceeds the budget " + std::to_string(budget));
  }
  const gala::JsonValue* leak = doc.find("leak_check");
  if (leak == nullptr || !leak->is_object()) return fail(file, "no leak_check object");
  const gala::JsonValue* clean = leak->find("clean");
  const gala::JsonValue* leaked = leak->find("leaked_tags");
  if (clean == nullptr || clean->type != gala::JsonValue::Type::Bool || leaked == nullptr ||
      !leaked->is_array()) {
    return fail(file, "leak_check: missing clean flag or leaked_tags array");
  }
  if (clean->boolean != leaked->array.empty()) {
    return fail(file, "leak_check: clean flag contradicts leaked_tags");
  }
  const gala::JsonValue* timeline = doc.find("timeline");
  if (timeline == nullptr || !timeline->is_array()) return fail(file, "no timeline array");
  for (const auto& e : timeline->array) {
    const gala::JsonValue* kind = e.find("kind");
    if (kind == nullptr || !kind->is_string() ||
        (kind->string != "iteration" && kind->string != "level")) {
      return fail(file, "timeline entry with kind not in {iteration, level}");
    }
    for (const char* key : {"index", "total"}) {
      const gala::JsonValue* v = e.find(key);
      if (v == nullptr || !v->is_number() || v->number < 0) {
        return fail(file, std::string("timeline: '") + key + "' is not a non-negative number");
      }
    }
    const gala::JsonValue* per = e.find("subsystems");
    if (per == nullptr || !per->is_object()) {
      return fail(file, "timeline entry without a subsystems object");
    }
    double sum = 0;
    for (const auto& [sname, bytes] : per->object) {
      if (!bytes.is_number() || bytes.number < 0) {
        return fail(file, "timeline subsystem '" + sname + "' is not a non-negative number");
      }
      sum += bytes.number;
    }
    if (sum != e.at("total").number) {
      return fail(file, "timeline entry total does not equal the subsystem sum");
    }
    if (budget > 0 && e.at("total").number > static_cast<double>(budget)) {
      return fail(file, "timeline " + e.at("kind").string + " " +
                            std::to_string(static_cast<int>(e.at("index").number)) + ": total " +
                            std::to_string(static_cast<std::uint64_t>(e.at("total").number)) +
                            " exceeds the budget " + std::to_string(budget));
    }
    if (sum > peak_live) return fail(file, "timeline entry total exceeds peak_live_bytes");
  }
  return true;
}

/// Chrome-trace shape: well-formed events, paired flow arrows, rank tracks.
bool check_chrome(const gala::JsonValue& doc, const std::string& file, int want_ranks,
                  const std::vector<std::string>& required) {
  const gala::JsonValue& events = doc.at("traceEvents");
  if (!events.is_array()) return fail(file, "traceEvents is not an array");
  // Flow arrows must pair up: each posted edge ("s") needs a consumer ("f")
  // with the same id, and vice versa — a dangling side means the merge lost
  // the other rank's half of the hand-off. An id names one arrow: reusing it
  // would let one arrow's end stand in for another's.
  std::set<std::string> flow_starts;
  std::set<std::string> flow_finishes;
  std::set<double> rank_pids;
  std::set<std::string> names;
  for (const auto& e : events.array) {
    if (e.find("name") == nullptr || e.find("ph") == nullptr || e.find("ts") == nullptr) {
      return fail(file, "malformed trace event");
    }
    names.insert(e.at("name").string);
    const std::string ph = e.at("ph").string;
    if (ph == "s" || ph == "f") {
      const gala::JsonValue* id = e.find("id");
      if (id == nullptr) return fail(file, "flow event without an id");
      const std::string key = id->is_string() ? id->string : std::to_string(id->number);
      if (!(ph == "s" ? flow_starts : flow_finishes).insert(key).second) {
        return fail(file, "flow id '" + key + "' used by two arrows");
      }
    }
    if (const gala::JsonValue* pid = e.find("pid")) {
      if (pid->is_number() && pid->number > 0 && ph != "M") rank_pids.insert(pid->number);
    }
  }
  for (const auto& id : flow_starts) {
    if (flow_finishes.count(id) == 0) {
      return fail(file, "flow id '" + id + "' posted but never completed");
    }
  }
  for (const auto& id : flow_finishes) {
    if (flow_starts.count(id) == 0) {
      return fail(file, "flow id '" + id + "' completed but never posted");
    }
  }
  if (want_ranks > 0 && static_cast<int>(rank_pids.size()) < want_ranks) {
    return fail(file, "expected spans on >= " + std::to_string(want_ranks) +
                          " rank tracks, saw " + std::to_string(rank_pids.size()));
  }
  if (!check_required(names, required, file, "span")) return false;
  std::printf("trace_check: %s ok (Chrome trace: %zu span names, %zu events)\n", file.c_str(),
              names.size(), events.array.size());
  return true;
}

/// The names a qualified --require matches in one report section.
std::set<std::string> section_names(const std::string& section, const gala::JsonValue& s) {
  std::set<std::string> names;
  const auto add = [&names](const gala::JsonValue* items, const char* member) {
    if (items == nullptr) return;
    for (const auto& item : items->array) {
      if (const gala::JsonValue* n = item.find(member)) names.insert(n->string);
    }
  };
  if (section == "metrics") {
    for (const auto& [key, value] : s.at("spans").object) names.insert(key);
  } else if (section == "profile") {
    add(s.find("kernels"), "name");
  } else if (section == "flight") {
    add(s.find("events"), "kind");
  } else if (section == "mem") {
    add(s.find("subsystems"), "name");
    for (const auto& sub : s.at("subsystems").array) add(sub.find("tags"), "name");
  }
  return names;
}

/// Run-report shape: report_schema, known sections only, and every section
/// present checked by its validator.
bool check_report(const gala::JsonValue& doc, const std::string& file, int want_ranks,
                  std::uint64_t budget, const std::vector<std::string>& required) {
  if (!doc.at("report_schema").is_number()) return fail(file, "report_schema is not a number");
  const std::set<std::string> known = {"run",    "metrics", "profile",  "flight",
                                       "health", "mem",     "governor"};
  std::string present;
  for (const auto& [key, value] : doc.object) {
    if (key == "report_schema" || key == "provenance") continue;
    if (known.count(key) == 0) return fail(file, "unknown report member '" + key + "'");
    if (!value.is_object()) return fail(file, "section '" + key + "' is not an object");
    present += (present.empty() ? "" : ", ") + key;
  }
  const gala::JsonValue* flight = doc.find("flight");
  const gala::JsonValue* mem = doc.find("mem");
  if (want_ranks > 0 && flight == nullptr) return fail(file, "--ranks needs a flight section");
  if (budget > 0 && mem == nullptr) return fail(file, "--budget needs a mem section");
  const std::string at = file + ": ";
  if (const gala::JsonValue* s = doc.find("metrics"); s && !check_metrics(*s, at + "metrics")) {
    return false;
  }
  if (const gala::JsonValue* s = doc.find("profile"); s && !check_profile(*s, at + "profile")) {
    return false;
  }
  if (flight != nullptr && !check_flight(*flight, at + "flight", want_ranks)) return false;
  if (const gala::JsonValue* s = doc.find("health"); s && !check_health(*s, at + "health")) {
    return false;
  }
  if (mem != nullptr && !check_mem(*mem, at + "mem", budget)) return false;

  for (const auto& want : required) {
    const std::size_t colon = want.find(':');
    const std::string section = want.substr(0, colon == std::string::npos ? 0 : colon);
    if (section != "metrics" && section != "profile" && section != "flight" && section != "mem") {
      return fail(file, "--require '" + want +
                            "' needs a section: metrics:, profile:, flight: or mem:");
    }
    const gala::JsonValue* s = doc.find(section);
    if (s == nullptr) return fail(file, "--require '" + want + "': no " + section + " section");
    if (!check_required(section_names(section, *s), {want.substr(colon + 1)}, file,
                        section + " name")) {
      return false;
    }
  }
  std::printf("trace_check: %s ok (run report: %s)\n", file.c_str(), present.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file;
  int ranks = 0;
  std::uint64_t budget = 0;
  std::vector<std::string> required;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ranks") {
      if (++i >= argc) {
        std::fprintf(stderr, "trace_check: --ranks needs a value\n");
        return 1;
      }
      ranks = std::atoi(argv[i]);
      if (ranks <= 0) {
        std::fprintf(stderr, "trace_check: --ranks needs a positive integer\n");
        return 1;
      }
    } else if (arg == "--budget") {
      if (++i >= argc) {
        std::fprintf(stderr, "trace_check: --budget needs a value\n");
        return 1;
      }
      char* end = nullptr;
      budget = std::strtoull(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0' || budget == 0) {
        std::fprintf(stderr, "trace_check: --budget needs a positive byte count, got '%s'\n",
                     argv[i]);
        return 1;
      }
    } else if (arg == "--require") {
      if (++i >= argc) {
        std::fprintf(stderr, "trace_check: --require needs a value\n");
        return 1;
      }
      required.emplace_back(argv[i]);
    } else if (file.empty()) {
      file = arg;
    } else {
      std::fprintf(stderr, "trace_check: unexpected argument '%s'\n", arg.c_str());
      return 1;
    }
  }
  if (file.empty()) {
    std::fprintf(stderr,
                 "usage: trace_check <file.json> [--require NAME]... [--ranks N] "
                 "[--budget BYTES]\n");
    return 1;
  }

  std::ifstream in(file);
  if (!in.is_open()) {
    std::fprintf(stderr, "trace_check: cannot open %s\n", file.c_str());
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  gala::JsonValue doc;
  try {
    doc = gala::parse_json(ss.str());
  } catch (const gala::Error& e) {
    std::fprintf(stderr, "trace_check: %s: invalid JSON: %s\n", file.c_str(), e.what());
    return 1;
  }
  if (!doc.is_object()) {
    std::fprintf(stderr, "trace_check: %s: top level is not an object\n", file.c_str());
    return 1;
  }
  bool ok = false;
  if (doc.find("traceEvents") != nullptr) {
    ok = budget == 0 ? check_chrome(doc, file, ranks, required)
                     : fail(file, "--budget needs a run report's mem section, not a Chrome trace");
  } else if (doc.find("report_schema") != nullptr) {
    ok = check_report(doc, file, ranks, budget, required);
  } else {
    ok = fail(file, "neither a Chrome trace (traceEvents) nor a run report (report_schema)");
  }
  return ok ? 0 : 1;
}
