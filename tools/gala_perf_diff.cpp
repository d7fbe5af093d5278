// Compares two performance sidecar files (or directories of them) and fails
// when modeled counters drift — the CI perf-regression gate.
//
// Usage:
//   gala_perf_diff <baseline> <current>
//
// <baseline>/<current> are JSON files, or directories compared pairwise by
// file name (every baseline file must exist on the current side). Documents
// are walked recursively and numeric leaves compared by relative delta:
//
//   - keys starting with "wall" are skipped (host wall-clock is
//     nondeterministic; modeled counters are the contract),
//   - keys ending in "_efficiency" are higher-better: only a drop beyond
//     kTolerance (2 %) is a regression,
//   - "modeled_ms" / "modeled_cycles" are lower-better: only growth beyond
//     kMsTolerance (10 %) is a regression,
//   - keys ending in "_allocs" are lower-better and gate at zero growth:
//     workspace pool misses are exact counts, so any growth means a pooled
//     path started hitting the heap,
//   - keys ending in "comm_bytes" gate at zero growth: the distributed sync
//     trajectory is bit-deterministic, so for an unchanged configuration any
//     growth in wire volume is a communication regression (shrinkage —
//     better elision or compression — passes),
//   - keys ending in "_overhead_pct" are compared absolutely, in percentage
//     points (kOverheadPoints, 2): the baseline hovers near zero, so a
//     relative rule would flag noise; the contract is "armed instrumentation
//     stays under 2 points of overhead", not "matches the baseline",
//   - keys matching "peak_*_bytes" gate at zero growth: memory high-water
//     marks are modeled from deterministic request sequences, so any growth
//     means a subsystem's footprint regressed (shrinkage passes),
//   - keys starting with "min_feasible" gate at zero growth: the smallest
//     enforceable memory budget is binary-searched from modeled bytes, so
//     growth means the governor's degradation ladder lost headroom
//     (shrinkage passes),
//   - every other number must match within kTolerance in either direction
//     (the emulated counters are deterministic, so any drift is a change
//     worth explaining — refresh the baseline deliberately, see
//     bench/baseline/README.md).
//
// A metric under a relative rule whose baseline value is exactly zero fails:
// the bench grew a metric the baseline does not gate, so the baseline is
// refreshed in the same change. The zero-growth rules need no such case:
// there, base 0 -> cur > 0 is precisely the regression being gated.
//
// Array elements align by their "name" member when present, else by index.
// Exit codes: 0 = within tolerance, 1 = regression/drift, 2 = usage or I/O.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gala/common/error.hpp"
#include "gala/common/json.hpp"

namespace {

namespace fs = std::filesystem;

constexpr double kTolerance = 0.02;       // symmetric counter drift, efficiency drop
constexpr double kMsTolerance = 0.10;     // modeled-ms / modeled-cycles growth
constexpr double kOverheadPoints = 2.0;   // "*_overhead_pct" ceiling, percentage points

struct DiffState {
  int regressions = 0;

  void report(const std::string& path, double base, double cur, const char* what) {
    ++regressions;
    std::fprintf(stderr, "perf_diff: %s: %s (baseline %.6g, current %.6g, %+.2f%%)\n",
                 path.c_str(), what, base, cur,
                 base != 0 ? 100.0 * (cur - base) / std::fabs(base) : 0.0);
  }

  /// A metric whose baseline is exactly zero has no meaningful relative
  /// delta: the row gained a field after the baseline was cut.
  void report_new(const std::string& path, double cur) {
    report(path, 0, cur, "new metric (zero baseline): refresh the baseline to gate it");
  }
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::string(suffix).size();
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// The final key of a JSON path like "kernels/decide_hash/modeled_ms".
std::string leaf_key(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

void diff_value(const gala::JsonValue& base, const gala::JsonValue& cur, const std::string& path,
                DiffState& state);

void diff_number(double base, double cur, const std::string& path, DiffState& state) {
  const std::string key = leaf_key(path);
  if (starts_with(key, "wall")) return;  // nondeterministic by design
  if (ends_with(key, "_overhead_pct")) {
    // Overhead rows measure a ratio that should sit at ~0%, where relative
    // comparison explodes; gate on the absolute ceiling instead.
    if (cur > base + kOverheadPoints) {
      state.report(path, base, cur, "instrumentation overhead regressed");
    }
    return;
  }
  const double denom = std::max(std::fabs(base), 1e-12);
  const double rel = (cur - base) / denom;
  if (ends_with(key, "_efficiency")) {
    if (base == 0 && cur != 0) return state.report_new(path, cur);
    if (rel < -kTolerance) state.report(path, base, cur, "efficiency regressed");
  } else if (key == "modeled_ms" || key == "modeled_cycles") {
    if (base == 0 && cur != 0) return state.report_new(path, cur);
    if (rel > kMsTolerance) state.report(path, base, cur, "modeled time regressed");
  } else if (ends_with(key, "_allocs")) {
    // Workspace pool misses are deterministic, so they gate at zero growth:
    // any new steady-state allocation is a pooling regression. A zero
    // baseline is NOT a "new metric" here — base 0 -> cur > 0 is exactly
    // the regression this rule exists to catch.
    if (cur > base) state.report(path, base, cur, "allocations regressed");
  } else if (ends_with(key, "comm_bytes")) {
    // Distributed wire volume is deterministic: growth for an unchanged
    // configuration means sync payloads, elision, or compression regressed.
    if (cur > base) state.report(path, base, cur, "comm bytes regressed");
  } else if (starts_with(key, "min_feasible")) {
    // The smallest budget that still completes with a reference-identical
    // partition is modeled and deterministic; growth means the degradation
    // ladder lost headroom somewhere. Shrinkage passes. A zero baseline
    // stays a hard gate, like the other byte budgets.
    if (cur > base) state.report(path, base, cur, "min feasible budget regressed");
  } else if (starts_with(key, "peak_") && ends_with(key, "_bytes")) {
    // Memory high-water marks are modeled (power-of-two size classes over
    // deterministic request sequences), so they gate at zero growth: any new
    // peak means a subsystem's footprint grew. Shrinkage passes. Like
    // _allocs, a zero baseline stays a hard gate.
    if (cur > base) state.report(path, base, cur, "peak bytes regressed");
  } else {
    if (base == 0 && cur != 0) return state.report_new(path, cur);
    if (std::fabs(rel) > kTolerance) state.report(path, base, cur, "counter drifted");
  }
}

void diff_array(const gala::JsonValue& base, const gala::JsonValue& cur, const std::string& path,
                DiffState& state) {
  // Align by "name" when every element carries one (the kernels array);
  // fall back to positional comparison (histogram buckets).
  const auto named = [](const gala::JsonValue& arr) {
    if (arr.array.empty()) return false;
    for (const auto& e : arr.array) {
      const gala::JsonValue* n = e.find("name");
      if (n == nullptr || !n->is_string()) return false;
    }
    return true;
  };
  if (named(base) && named(cur)) {
    std::map<std::string, const gala::JsonValue*> cur_by_name;
    for (const auto& e : cur.array) cur_by_name[e.at("name").string] = &e;
    for (const auto& e : base.array) {
      const std::string name = e.at("name").string;
      const auto it = cur_by_name.find(name);
      if (it == cur_by_name.end()) {
        state.report(path + "/" + name, 1, 0, "element missing from current");
        continue;
      }
      diff_value(e, *it->second, path + "/" + name, state);
    }
    return;
  }
  if (base.array.size() != cur.array.size()) {
    state.report(path, static_cast<double>(base.array.size()),
                 static_cast<double>(cur.array.size()), "array length changed");
    return;
  }
  for (std::size_t i = 0; i < base.array.size(); ++i) {
    diff_value(base.array[i], cur.array[i], path + "/" + std::to_string(i), state);
  }
}

void diff_value(const gala::JsonValue& base, const gala::JsonValue& cur, const std::string& path,
                DiffState& state) {
  if (base.type != cur.type) {
    state.report(path, 0, 0, "value type changed");
    return;
  }
  switch (base.type) {
    case gala::JsonValue::Type::Number:
      diff_number(base.number, cur.number, path, state);
      return;
    case gala::JsonValue::Type::Object:
      for (const auto& [key, value] : base.object) {
        if (starts_with(key, "wall")) continue;
        const gala::JsonValue* other = cur.find(key);
        if (other == nullptr) {
          state.report(path + "/" + key, 1, 0, "member missing from current");
          continue;
        }
        diff_value(value, *other, path + "/" + key, state);
      }
      return;
    case gala::JsonValue::Type::Array:
      diff_array(base, cur, path, state);
      return;
    default:
      return;  // strings/bools/nulls are labels, not measurements
  }
}

gala::JsonValue load(const fs::path& file) {
  std::ifstream in(file);
  GALA_CHECK(in.is_open(), "cannot open " << file.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return gala::parse_json(ss.str());
}

int diff_files(const fs::path& base, const fs::path& cur) {
  DiffState state;
  diff_value(load(base), load(cur), base.filename().string(), state);
  if (state.regressions > 0) {
    std::fprintf(stderr, "perf_diff: %s vs %s: %d regression%s\n", base.string().c_str(),
                 cur.string().c_str(), state.regressions, state.regressions == 1 ? "" : "s");
    return 1;
  }
  std::printf("perf_diff: %s ok\n", base.filename().string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: gala_perf_diff <baseline> <current>\n");
    return 2;
  }

  const fs::path base(argv[1]), cur(argv[2]);
  try {
    if (fs::is_directory(base)) {
      if (!fs::is_directory(cur)) {
        std::fprintf(stderr, "perf_diff: %s is a directory but %s is not\n",
                     base.string().c_str(), cur.string().c_str());
        return 2;
      }
      std::vector<fs::path> files;
      for (const auto& entry : fs::directory_iterator(base)) {
        if (entry.is_regular_file() && entry.path().extension() == ".json") {
          files.push_back(entry.path());
        }
      }
      std::sort(files.begin(), files.end());
      if (files.empty()) {
        std::fprintf(stderr, "perf_diff: no .json files in %s\n", base.string().c_str());
        return 2;
      }
      int worst = 0;
      for (const auto& file : files) {
        const fs::path other = cur / file.filename();
        if (!fs::exists(other)) {
          std::fprintf(stderr, "perf_diff: %s missing from %s\n",
                       file.filename().string().c_str(), cur.string().c_str());
          worst = std::max(worst, 1);
          continue;
        }
        worst = std::max(worst, diff_files(file, other));
      }
      return worst;
    }
    return diff_files(base, cur);
  } catch (const gala::Error& e) {
    std::fprintf(stderr, "perf_diff: %s\n", e.what());
    return 2;
  }
}
