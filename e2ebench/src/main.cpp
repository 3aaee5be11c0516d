// rab_e2e — end-to-end benchmark program for rab.
//
//   rab_e2e --workload repro|tournament|serve --seed N --seconds S
//           --trace 0|1 --rab PATH --work-dir DIR
//
// Runs whole rounds of the workload until --seconds have passed (at least
// one), checks the outputs, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones.
// Progress and check failures go to stderr. Exit code 0 only when every
// check passed. The analysis pool, and the `rab serve` processes started,
// take their thread count from RAB_THREADS.
#include <signal.h>
#include <sys/resource.h>

#include <cstdlib>
#include <ctime>
#include <exception>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "util/parse.hpp"

namespace rab::e2e {

std::string result_json(const Result& result) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Result::Metric& m = result.metrics[i];
    if (i > 0) os << ", ";
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << '"' << m.name << "\": {\"value\": " << fmt17(v) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::string fmt17(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

RegistryView scrape_local() {
  RegistryView view;
  for (const auto& m : util::metrics::scrape().metrics) {
    switch (m.type) {
      case util::metrics::MetricType::kCounter:
        view.scalar[m.name] = static_cast<double>(m.counter);
        break;
      case util::metrics::MetricType::kGauge:
        view.scalar[m.name] = m.gauge;
        break;
      case util::metrics::MetricType::kHistogram: {
        RegistryView::Hist h;
        h.count = static_cast<double>(m.hist.count);
        h.sum = m.hist.sum;
        for (std::size_t b = 0; b < m.hist.buckets.size(); ++b) {
          if (m.hist.buckets[b] == 0) continue;
          h.max_bound = b < m.hist.bounds.size()
                            ? m.hist.bounds[b]
                            : std::numeric_limits<double>::infinity();
        }
        view.hist[m.name] = h;
        break;
      }
    }
  }
  return view;
}

namespace {

std::string prometheus_name(std::string_view dotted) {
  std::string out = "rab_";
  for (const char c : dotted) {
    out += std::isalnum(static_cast<unsigned char>(c))
               ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
               : '_';
  }
  return out;
}

}  // namespace

RegistryView parse_prometheus(const std::string& text,
                              const std::vector<std::string>& names) {
  std::map<std::string, double> samples;
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    const std::size_t brace = key.find("_bucket{le=\"");
    if (brace != std::string::npos) {
      const std::string le = key.substr(brace + 12, key.size() - brace - 14);
      const double bound = le == "+Inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::strtod(le.c_str(), nullptr);
      buckets[key.substr(0, brace)].emplace_back(bound, value);
      continue;
    }
    samples[key] = value;
  }
  RegistryView view;
  for (const std::string& name : names) {
    const std::string p = prometheus_name(name);
    if (const auto it = samples.find(p + "_total"); it != samples.end()) {
      view.scalar[name] = it->second;
    } else if (const auto g = samples.find(p); g != samples.end()) {
      view.scalar[name] = g->second;
    } else if (const auto c = samples.find(p + "_count");
               c != samples.end()) {
      RegistryView::Hist h;
      h.count = c->second;
      h.sum = samples[p + "_sum"];
      double previous = 0.0;
      for (const auto& [bound, cumulative] : buckets[p]) {
        if (cumulative > previous) h.max_bound = bound;
        previous = cumulative;
      }
      view.hist[name] = h;
    }
  }
  return view;
}

RegistryView registry_delta(const RegistryView& later,
                            const RegistryView& earlier) {
  RegistryView out = later;
  for (auto& [name, value] : out.scalar) value -= earlier.value(name);
  for (auto& [name, h] : out.hist) {
    const RegistryView::Hist before = earlier.histogram(name);
    h.count -= before.count;
    h.sum -= before.sum;
  }
  return out;
}

double put_detector_metrics(Result& result, const RegistryView& delta) {
  double busy = 0.0;
  for (const std::string& d : detector_names()) {
    const RegistryView::Hist h = delta.histogram("detector." + d + ".seconds");
    result.put("detector." + d + ".busy_s", h.sum, "s");
    result.put("detector." + d + ".runs", h.count, "count");
    busy += h.sum;
  }
  const double hits = delta.value("cache.hits");
  const double lookups =
      hits + delta.value("cache.partial_hits") + delta.value("cache.misses");
  result.put("cache.hit_ratio", lookups > 0.0 ? hits / lookups : 0.0,
             "ratio");
  result.put("cache.lookups", lookups, "count");
  return busy;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = [] {
    std::vector<std::pair<std::string, std::string>> c{
        {"budget_s", "s"},
        {"unattributed_s", "s"},
        {"trace_overhead_s", "s"},
        {"self.aggregation_s", "s"},
        {"self.detectors_s", "s"},
        {"self.challenge_s", "s"},
        {"self.core_s", "s"},
        {"self.serve.ingest_s", "s"},
        {"self.monitor.epoch_s", "s"},
        {"self.checkpoint.save_s", "s"},
    };
    for (const char* s : {"bf", "p", "sa", "med", "ent"}) {
      c.emplace_back(std::string("aggregation.") + s + ".busy_s", "s");
      c.emplace_back(std::string("aggregation.") + s + ".calls", "count");
    }
    c.emplace_back("challenge.mp_evaluations", "count");
    c.emplace_back("challenge.evaluate.self_s", "s");
    c.emplace_back("core.region_search.busy_s", "s");
    for (const char* s : {"sa", "sa_cg", "med", "ent", "p"}) {
      c.emplace_back(std::string("core.tournament.row.") + s + ".busy_s",
                     "s");
    }
    c.emplace_back("core.tournament.cell_max_s", "s");
    c.emplace_back("core.tournament.evaluations", "count");
    for (const std::string& d : detector_names()) {
      c.emplace_back("detector." + d + ".busy_s", "s");
      c.emplace_back("detector." + d + ".runs", "count");
    }
    const std::vector<std::pair<std::string, std::string>> rest{
        {"cache.hit_ratio", "ratio"},
        {"cache.lookups", "count"},
        {"monitor.epoch.busy_s", "s"},
        {"monitor.epoch.max_ms", "ms"},
        {"monitor.epochs", "count"},
        {"checkpoint.save.busy_s", "s"},
        {"checkpoint.saves", "count"},
        {"checkpoint.restore.busy_s", "s"},
        {"net.accept_p50_ms", "ms"},
        {"net.accept_p99_ms", "ms"},
        {"net.generator_late_max_ms", "ms"},
        {"serve.retries", "count"},
        {"serve.queue.depth_max", "count"},
        {"serve.ingest.busy_s", "s"},
        {"serve.frames", "count"},
        {"serve.durable_p50_ms", "ms"},
        {"serve.durable_p99_ms", "ms"},
        {"serve.query_p50_ms", "ms"},
        {"serve.query_p99_ms", "ms"},
        {"serve.queries", "count"},
        {"serve.start_s", "s"},
        {"serve.restart_s", "s"},
        {"serve.epoch_stall_s", "s"},
        {"store.groups", "count"},
        {"store.fsyncs_per_1k", "count"},
        {"store.ratings", "count"},
        {"store.mapped_bytes", "bytes"},
        {"rating.feed_build_s", "s"},
    };
    c.insert(c.end(), rest.begin(), rest.end());
    return c;
  }();
  return catalog;
}

void fill_per_layer(Result& result) {
  Result filled;
  filled.correct = result.correct;
  filled.attempted = result.attempted;
  filled.failed = result.failed;
  for (const auto& [name, unit] : per_layer_catalog()) {
    double value = 0.0;
    for (const Result::Metric& m : result.metrics) {
      if (m.name == name) value = m.value;
    }
    filled.put(name, value, unit);
  }
  result = std::move(filled);
}

namespace {

const std::vector<std::pair<std::string, std::string>>& end_to_end() {
  static const std::vector<std::pair<std::string, std::string>> names{
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"cpu_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return names;
}

int usage() {
  std::fprintf(stderr,
               "usage: rab_e2e --workload repro|tournament|serve --seed N "
               "--seconds S --trace 0|1 --rab PATH --work-dir DIR\n");
  return 2;
}

}  // namespace

}  // namespace rab::e2e

int main(int argc, char** argv) {
  using namespace rab::e2e;
  Options options;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = rab::util::parse_u64(value, "--seed");
      } else if (flag == "--seconds") {
        options.seconds = rab::util::parse_double(value, "--seconds");
      } else if (flag == "--trace") {
        options.trace = rab::util::parse_u64(value, "--trace") != 0;
      } else if (flag == "--rab") {
        options.rab = value;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage();
      }
    }
    if (argc % 2 != 1 || options.work_dir.empty()) return usage();
    // A server that dies mid-write surfaces as a failed check, not SIGPIPE.
    signal(SIGPIPE, SIG_IGN);

    Result result;
    if (options.workload == "repro") {
      result = run_repro(options);
    } else if (options.workload == "tournament") {
      result = run_tournament(options);
    } else if (options.workload == "serve") {
      if (options.rab.empty()) return usage();
      result = run_serve(options);
    } else {
      return usage();
    }

    if (options.trace) {
      fill_per_layer(result);
    } else {
      Result e2e;
      e2e.correct = result.correct;
      e2e.attempted = result.attempted;
      e2e.failed = result.failed;
      for (const auto& [name, unit] : end_to_end()) {
        bool found = false;
        for (const Result::Metric& m : result.metrics) {
          if (m.name == name) {
            e2e.put(name, m.value, unit);
            found = true;
          }
        }
        e2e.check(found, "workload did not measure " + name);
      }
      // The serve-only figures are printed to stderr in untraced runs so
      // they are visible without a traced run.
      for (const Result::Metric& m : result.metrics) {
        if (m.name.rfind("serve.", 0) == 0) {
          std::fprintf(stderr, "%s = %.6g %s\n", m.name.c_str(), m.value,
                       m.unit.c_str());
        }
      }
      result = std::move(e2e);
    }
    std::printf("%s\n", result_json(result).c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rab_e2e: %s\n", e.what());
    return 1;
  }
}
