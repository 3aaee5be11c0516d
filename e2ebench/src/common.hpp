// Shared pieces of the rab end-to-end benchmark: run options, the result
// record printed as the last line of stdout, timing and process helpers,
// and registry readers for the program's own metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/metrics.hpp"

namespace rab::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rab;       ///< path of the `rab` CLI binary
  std::string work_dir;  ///< scratch directory inside the checkout
};

/// One workload run: correctness, operation counts and metrics in the
/// order they are printed.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void put(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }

  /// Records a failed correctness check (kept going so every failure is
  /// reported on stderr).
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

[[nodiscard]] std::string result_json(const Result& result);

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// User+system CPU seconds of this process.
[[nodiscard]] double process_cpu_s();
/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Median of `v` (by value; empty gives 0).
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0,1]) of `v`; empty gives 0.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// %.17g — round-trip exact, the format the program's JSON replies use.
[[nodiscard]] std::string fmt17(double value);

/// Registry values as the benchmark reads them: counters and gauges by
/// name, histograms as (count, sum, highest non-empty bucket bound).
struct RegistryView {
  std::map<std::string, double> scalar;
  struct Hist {
    double count = 0.0;
    double sum = 0.0;
    double max_bound = 0.0;  ///< upper bound of the highest non-empty bucket
  };
  std::map<std::string, Hist> hist;

  [[nodiscard]] double value(const std::string& name) const {
    const auto it = scalar.find(name);
    return it == scalar.end() ? 0.0 : it->second;
  }
  [[nodiscard]] Hist histogram(const std::string& name) const {
    const auto it = hist.find(name);
    return it == hist.end() ? Hist{} : it->second;
  }
};

/// In-process scrape of the registry.
[[nodiscard]] RegistryView scrape_local();
/// Parses the Prometheus text the server's `metrics` query returns; names
/// are mapped back to the registry's dotted form where the catalog knows
/// them (`names` lists the dotted names to look for).
[[nodiscard]] RegistryView parse_prometheus(
    const std::string& text, const std::vector<std::string>& names);
/// later - earlier for counters and histogram count/sum (gauges and
/// max_bound keep the later value).
[[nodiscard]] RegistryView registry_delta(const RegistryView& later,
                                          const RegistryView& earlier);

/// The detector names of the registry catalog (docs/METRICS.md).
inline const std::vector<std::string>& detector_names() {
  static const std::vector<std::string> names{"mc", "arc", "harc",
                                              "larc", "hc", "me"};
  return names;
}

/// Puts detector.<d>.busy_s/.runs and cache.hit_ratio/.lookups from a
/// registry delta; returns the summed detector busy seconds.
double put_detector_metrics(Result& result, const RegistryView& delta);

/// Every per-layer metric the benchmark defines, with its unit, in print
/// order. A workload that does not touch a layer reports it as 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();
/// Adds every per-layer metric missing from `result` with value 0.
void fill_per_layer(Result& result);

Result run_repro(const Options& options);
Result run_tournament(const Options& options);
Result run_serve(const Options& options);

}  // namespace rab::e2e
