// Workload `tournament`: `rab tournament` on the EXPERIMENTS.md matrix —
// schemes SA,SA+CG,MED,ENT,P × the five attack families — against the
// default challenge (fair data seed 20070425), with the tournament seed
// taken from --seed. It runs no BF, so it is the no-change control for
// BF work.
//
// Checks: the matrix JSON is byte-identical at two thread counts; every
// cell runs the round count that follows from the search geometry alone;
// the P row's cells evaluate exactly their budget of probes, counted by the
// P scheme itself; and every cell's result is a valid MP at a valid
// (bias, sigma).
#include <atomic>
#include <cmath>
#include <thread>

#include "challenge/challenge.hpp"
#include "common.hpp"
#include "core/tournament.hpp"
#include "rating/fair_generator.hpp"
#include "util/parallel.hpp"

namespace rab::e2e {

namespace {

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 15;

core::TournamentOptions matrix_options(std::uint64_t seed) {
  core::TournamentOptions options;
  options.schemes = {"SA", "SA+CG", "MED", "ENT", "P"};
  options.attacks = {"indep-random", "indep-heuristic", "squad-pre",
                     "squad-sybil", "squad-osc"};
  options.seed = seed;
  return options;
}

/// Rounds Procedure 2 runs before the area is small enough, from the
/// search geometry alone (each round keeps a subarea `shrink` times the
/// parent; clamping sigma at 0 only narrows it further, and the bias
/// axis is never clamped).
std::size_t expected_rounds(const core::RegionSearchOptions& o) {
  double bias = o.bias.width();
  double sigma = o.sigma.width();
  for (std::size_t round = 1; round <= o.max_rounds; ++round) {
    bias *= o.shrink;
    sigma *= o.shrink;
    if (bias < o.min_bias_width && sigma < o.min_sigma_width) return round;
  }
  return o.max_rounds;
}

std::string row_key(const std::string& spec) {
  std::string key;
  for (const char c : spec) {
    key += c == '+' ? '_' : static_cast<char>(std::tolower(c));
  }
  return key;
}

/// Polls the registry's `tournament.cells` counter and stamps the time
/// each cell completes. At one thread cells run in index order, so the
/// gaps between stamps are the cells' run times.
class CellSampler {
 public:
  CellSampler() : start_(SteadyClock::now()), thread_([this] { loop(); }) {}
  ~CellSampler() { stop(); }
  CellSampler(const CellSampler&) = delete;
  CellSampler& operator=(const CellSampler&) = delete;

  std::vector<double> stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return stamps_;
  }

 private:
  void loop() {
    const double base = scrape_local().value("tournament.cells");
    std::size_t seen = 0;
    for (;;) {
      const bool last = stop_.load();
      const double done = scrape_local().value("tournament.cells") - base;
      const double now = seconds_since(start_);
      while (static_cast<double>(seen) < done) {
        stamps_.push_back(now);
        ++seen;
      }
      if (last) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  SteadyClock::time_point start_;
  std::atomic<bool> stop_{false};
  std::vector<double> stamps_;
  std::thread thread_;  // declared last: starts after the members it uses
};

}  // namespace

Result run_tournament(const Options& options) {
  Result result;
  std::vector<double> setup_times;
  std::unique_ptr<challenge::Challenge> ch;
  auto timed_setup = [&] {
    const auto start = SteadyClock::now();
    rating::FairDataConfig config;  // `rab generate` defaults
    ch = std::make_unique<challenge::Challenge>(
        rating::FairDataGenerator(config).generate());
    setup_times.push_back(seconds_since(start));
  };
  const core::TournamentOptions matrix = matrix_options(options.seed);
  const std::size_t threads = util::thread_count();
  const std::size_t check_threads = threads > 1 ? threads - 1 : 2;

  // `before` is the registry as it was before `r` was run. A cell's
  // `evaluations` is rounds x grid² x trials by construction, so the
  // independent count is the P scheme's own `scheme.p.overlay_aggregates`
  // counter: one per MP evaluation under P. The other rows have no such
  // counter; for them only the round count is checked.
  auto check_matrix = [&](const core::TournamentResult& r,
                          const RegistryView& before) {
    const double p_aggregates =
        scrape_local().value("scheme.p.overlay_aggregates") -
        before.value("scheme.p.overlay_aggregates");
    const std::size_t rounds = expected_rounds(matrix.search);
    const std::size_t budget =
        rounds * matrix.search.grid * matrix.search.grid * matrix.search.trials;
    std::uint64_t evaluations = 0;
    std::uint64_t p_evaluations = 0;
    result.check(r.cells.size() == matrix.schemes.size() * matrix.attacks.size(),
                 "tournament: matrix has the wrong number of cells");
    for (const core::TournamentCell& c : r.cells) {
      const std::string cell = c.scheme + " x " + c.attack;
      result.check(c.rounds == rounds && c.evaluations == budget,
                   "tournament: " + cell + " spent " +
                       std::to_string(c.evaluations) + " evaluations in " +
                       std::to_string(c.rounds) + " rounds, budget is " +
                       std::to_string(budget));
      result.check(std::isfinite(c.best_mp) && c.best_mp >= 0.0,
                   "tournament: " + cell + " has an invalid MP");
      result.check(std::isfinite(c.best_bias) && c.best_sigma >= 0.0,
                   "tournament: " + cell + " has an invalid optimum");
      evaluations += c.evaluations;
      if (c.scheme == "P") p_evaluations += c.evaluations;
    }
    result.check(p_aggregates == static_cast<double>(p_evaluations),
                 "tournament: the P row evaluated " + fmt17(p_aggregates) +
                     " probes, its budget is " +
                     std::to_string(p_evaluations));
    return evaluations;
  };

  // Half the set-ups before the rounds and the rest after, so that their
  // median spans the run rather than one moment of it.
  while (setup_times.size() < kSetups / 2) timed_setup();

  std::vector<double> walls;
  std::vector<double> cpus;
  const auto run_start = SteadyClock::now();
  do {
    timed_setup();
    const RegistryView before = scrape_local();
    const double cpu0 = process_cpu_s();
    const auto start = SteadyClock::now();
    const core::TournamentResult r = core::run_tournament(*ch, matrix);
    walls.push_back(seconds_since(start));
    cpus.push_back(process_cpu_s() - cpu0);
    const std::string json = core::tournament_json(r);
    result.attempted += check_matrix(r, before);

    // The same matrix at another thread count must be byte-identical.
    util::set_thread_count(check_threads);
    const RegistryView before_again = scrape_local();
    const core::TournamentResult again = core::run_tournament(*ch, matrix);
    util::set_thread_count(threads);
    result.check(core::tournament_json(again) == json,
                 "tournament: JSON differs between " +
                     std::to_string(threads) + " and " +
                     std::to_string(check_threads) + " threads");
    result.attempted += check_matrix(again, before_again);
  } while (!options.trace && seconds_since(run_start) < options.seconds);
  while (setup_times.size() < kSetups) timed_setup();

  result.put("setup_s", median(setup_times), "s");
  result.put("wall_s", median(walls), "s");
  result.put("cpu_s", median(cpus), "s");
  result.put("peak_rss_mb", peak_rss_mib(), "MiB");

  if (options.trace) {
    // Traced matrix at the measured thread count, with the cell sampler
    // on: its wall against the untraced one is the overhead.
    {
      const RegistryView before = scrape_local();
      CellSampler sampler;
      const auto start = SteadyClock::now();
      const core::TournamentResult r = core::run_tournament(*ch, matrix);
      const double wall = seconds_since(start);
      (void)sampler.stop();
      result.attempted += check_matrix(r, before);
      result.put("trace_overhead_s", wall - walls.back(), "s");
    }
    // Layer budget: the same matrix on one thread, so every cell's run
    // time is a gap between completion stamps and the budget is wall.
    util::set_thread_count(1);
    const RegistryView before = scrape_local();
    CellSampler sampler;
    const auto start = SteadyClock::now();
    const core::TournamentResult r = core::run_tournament(*ch, matrix);
    const double budget = seconds_since(start);
    const std::vector<double> stamps = sampler.stop();
    const RegistryView delta = registry_delta(scrape_local(), before);
    util::set_thread_count(threads);
    result.attempted += check_matrix(r, before);
    result.check(stamps.size() == r.cells.size(),
                 "tournament: cell sampler missed a cell");

    std::map<std::string, double> rows;
    double cell_sum = 0.0;
    double cell_max = 0.0;
    for (std::size_t i = 0; i < r.cells.size() && i < stamps.size(); ++i) {
      // The sampler polls every 2 ms; a stamp never lies past the end.
      const double cell = std::min(stamps[i], budget) -
                          (i == 0 ? 0.0 : std::min(stamps[i - 1], budget));
      rows[row_key(r.cells[i].scheme)] += cell;
      cell_sum += cell;
      cell_max = std::max(cell_max, cell);
    }
    for (const auto& [row, busy] : rows) {
      result.put("core.tournament.row." + row + ".busy_s", busy, "s");
    }
    result.put("core.tournament.cell_max_s", cell_max, "s");
    const double detector_busy = put_detector_metrics(result, delta);
    result.put("core.tournament.evaluations",
               delta.value("tournament.evaluations"), "count");
    result.put("budget_s", budget, "s");
    result.put("self.detectors_s", detector_busy, "s");
    result.put("self.core_s", cell_sum - detector_busy, "s");
    result.put("unattributed_s", budget - cell_sum, "s");
  }
  return result;
}

}  // namespace rab::e2e
