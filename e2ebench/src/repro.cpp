// Workload `repro`: the paper's own evaluation. One round computes what
// bench/table_scheme_comparison and bench/fig2..fig8 print (challenge seed
// 20070425, population seed 17, 251 submissions), checks every SHAPE-CHECK
// property, recomputes the SA-scheme MP of every submission from the raw
// ratings, and re-scores each scheme's strongest submission through the
// materialized path. The inputs are the paper's fixed seeds; --seed does
// not change them.
//
// Per-submission sweeps go through challenge::analyze_population (the
// program's fan-out over the analysis pool); the figure loops that the
// benches run one evaluation at a time stay serial here too.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "aggregation/bf_scheme.hpp"
#include "aggregation/entropy_scheme.hpp"
#include "aggregation/median_scheme.hpp"
#include "aggregation/p_scheme.hpp"
#include "aggregation/sa_scheme.hpp"
#include "challenge/analysis.hpp"
#include "challenge/challenge.hpp"
#include "challenge/participants.hpp"
#include "common.hpp"
#include "core/attack_generator.hpp"
#include "core/value_time_mapper.hpp"
#include "util/parallel.hpp"

namespace rab::e2e {

namespace {

constexpr std::uint64_t kChallengeSeed = 20070425;
constexpr std::uint64_t kPopulationSeed = 17;
constexpr std::size_t kPopulationSize = 251;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 15;

enum Kind { kBf, kP, kSa, kMed, kEnt, kKinds };
const char* const kKindNames[kKinds] = {"bf", "p", "sa", "med", "ent"};

/// Busy time and call count per scheme kind, summed over every thread.
struct SchemeClock {
  std::atomic<std::uint64_t> ns[kKinds] = {};
  std::atomic<std::uint64_t> calls[kKinds] = {};
  std::atomic<std::uint64_t> overlay_calls{0};
  /// Set while the benchmark is inside a fan-out call (a sweep or a region
  /// search), whose own threads' time already makes up its budget.
  std::atomic<bool> in_fanout{false};

  [[nodiscard]] double total_s() const {
    std::uint64_t sum = 0;
    for (const auto& n : ns) sum += n.load();
    return 1e-9 * static_cast<double>(sum);
  }
};

/// Forwarding scheme for the traced run: times aggregate and
/// aggregate_overlay of the wrapped scheme from outside. A scheme that fans
/// out over the analysis pool (`width` > 1) is charged wall x width when
/// the benchmark calls it directly. Inside a sweep or a region search it
/// is one of that call's parallel bodies and is charged its wall.
class TimedScheme final : public aggregation::AggregationScheme {
 public:
  TimedScheme(const aggregation::AggregationScheme& inner, Kind kind,
              std::size_t width, SchemeClock& clock)
      : inner_(inner), kind_(kind), width_(width), clock_(clock) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string identity() const override {
    return inner_.identity();
  }
  [[nodiscard]] aggregation::AggregateSeries aggregate(
      const rating::Dataset& data, double bin_days) const override {
    const auto start = SteadyClock::now();
    auto out = inner_.aggregate(data, bin_days);
    record(start);
    return out;
  }
  [[nodiscard]] aggregation::AggregateSeries aggregate_overlay(
      const rating::DatasetOverlay& data, double bin_days,
      const aggregation::AggregateSeries* fair_baseline) const override {
    const auto start = SteadyClock::now();
    auto out = inner_.aggregate_overlay(data, bin_days, fair_baseline);
    record(start);
    clock_.overlay_calls.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

 private:
  void record(SteadyClock::time_point start) const {
    const std::size_t width = clock_.in_fanout.load() ? 1 : width_;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        SteadyClock::now() - start)
                        .count() *
                    static_cast<std::int64_t>(width);
    clock_.ns[kind_].fetch_add(static_cast<std::uint64_t>(ns),
                               std::memory_order_relaxed);
    clock_.calls[kind_].fetch_add(1, std::memory_order_relaxed);
  }

  const aggregation::AggregationScheme& inner_;
  Kind kind_;
  std::size_t width_;
  SchemeClock& clock_;
};

/// The benchmark's calls into the challenge and core layers, timed when
/// tracing. A call that fans out over the pool, itself or through the
/// scheme it reaches, is charged wall x threads (thread-seconds), a serial
/// call its wall; the scheme time measured inside is subtracted to give the
/// layer's self time.
struct Ledger {
  SchemeClock* clock = nullptr;  ///< null: not tracing
  double fanout_extra = 0.0;  ///< sum of wall x (threads - 1)
  double challenge_self = 0.0;
  double core_self = 0.0;
  double region_search_busy = 0.0;
  double evaluate_self = 0.0;  ///< challenge.evaluate calls only

  enum class Layer { kChallengeEval, kChallengeSweep, kCore, kRegionSearch };

  template <typename F>
  auto call(Layer layer, std::size_t threads, F&& f) -> decltype(f()) {
    if (clock == nullptr) return f();
    const bool fanout =
        layer == Layer::kChallengeSweep || layer == Layer::kRegionSearch;
    if (fanout) clock->in_fanout.store(true);
    const double scheme_before = clock->total_s();
    const auto start = SteadyClock::now();
    struct Charge {
      Ledger& ledger;
      Layer layer;
      std::size_t threads;
      bool fanout;
      double scheme_before;
      SteadyClock::time_point start;
      ~Charge() {
        if (fanout) ledger.clock->in_fanout.store(false);
        const double wall = seconds_since(start);
        const double budget = wall * static_cast<double>(threads);
        const double self =
            budget - (ledger.clock->total_s() - scheme_before);
        ledger.fanout_extra += budget - wall;
        switch (layer) {
          case Layer::kChallengeEval:
            ledger.evaluate_self += self;
            ledger.challenge_self += self;
            break;
          case Layer::kChallengeSweep:
            ledger.challenge_self += self;
            break;
          case Layer::kRegionSearch:
            ledger.region_search_busy += budget;
            ledger.core_self += self;
            break;
          case Layer::kCore:
            ledger.core_self += self;
            break;
        }
      }
    } charge{*this, layer, threads, fanout, scheme_before, start};
    return f();
  }
};

struct Setup {
  std::unique_ptr<challenge::Challenge> challenge;
  std::vector<challenge::Submission> population;
};

Setup make_setup() {
  Setup s;
  s.challenge = std::make_unique<challenge::Challenge>(
      challenge::Challenge::make_default(kChallengeSeed));
  s.population = challenge::ParticipantPopulation(*s.challenge, kPopulationSeed)
                     .generate(kPopulationSize);
  return s;
}

// ------------------------------------------------------------ figure logic

enum class Region { kR1, kR2, kR3, kOther };

Region region_of(const challenge::VarianceBiasPoint& p) {
  if (p.bias >= 0.0) return Region::kOther;
  const bool large_bias = p.bias <= -3.0;
  const bool large_var = p.stddev >= 0.7;
  if (large_bias && !large_var) return Region::kR1;
  if (!large_bias && !large_var) return Region::kR2;
  if (!large_bias && large_var) return Region::kR3;
  return Region::kOther;
}

struct RegionCounts {
  int r1 = 0, r2 = 0, r3 = 0;
};

RegionCounts lmp_regions(const std::vector<challenge::VarianceBiasPoint>& pts) {
  RegionCounts c;
  for (const auto& p : pts) {
    if (!p.lmp) continue;
    switch (region_of(p)) {
      case Region::kR1: ++c.r1; break;
      case Region::kR2: ++c.r2; break;
      case Region::kR3: ++c.r3; break;
      case Region::kOther: break;
    }
  }
  return c;
}

double max_mp(const std::vector<challenge::VarianceBiasPoint>& pts) {
  double best = 0.0;
  for (const auto& p : pts) best = std::max(best, p.overall_mp);
  return best;
}

int corner_winners(const std::vector<challenge::VarianceBiasPoint>& pts) {
  int n = 0;
  for (const auto& p : pts) {
    if (p.lmp && p.bias <= -3.5 && p.stddev <= 0.25) ++n;
  }
  return n;
}

/// SA-scheme MP computed apart from the program: plain per-bin means of
/// the raw fair and attacked ratings over bins of `bin_days` starting at
/// each dataset's first rating.
double sa_mp_independent(const challenge::Challenge& ch,
                         const challenge::Submission& s) {
  using Rows = std::map<std::int64_t, std::vector<std::pair<double, double>>>;
  Rows fair;
  for (ProductId id : ch.fair().product_ids()) {
    const auto& pr = ch.fair().product(id);
    auto& rows = fair[id.value()];
    for (std::size_t i = 0; i < pr.times().size(); ++i) {
      rows.emplace_back(pr.times()[i], pr.values()[i]);
    }
  }
  Rows attacked = fair;
  for (const rating::Rating& r : s.ratings) {
    attacked[r.product.value()].emplace_back(r.time, r.value);
  }
  const double w = ch.config().bin_days;
  auto bin_means = [w](const Rows& rows, std::int64_t product) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (const auto& [id, rs] : rows) {
      for (const auto& [t, v] : rs) {
        lo = std::min(lo, t);
        hi = std::max(hi, t);
      }
    }
    const auto bins = static_cast<std::size_t>(std::floor((hi - lo) / w)) + 1;
    std::vector<double> sum(bins, 0.0);
    std::vector<double> count(bins, 0.0);
    for (const auto& [t, v] : rows.at(product)) {
      const auto b = static_cast<std::size_t>(std::floor((t - lo) / w));
      sum[b] += v;
      count[b] += 1.0;
    }
    std::vector<double> mean(bins, std::numeric_limits<double>::quiet_NaN());
    for (std::size_t b = 0; b < bins; ++b) {
      if (count[b] > 0.0) mean[b] = sum[b] / count[b];
    }
    return mean;
  };
  double overall = 0.0;
  for (const auto& [id, rs] : fair) {
    const std::vector<double> f = bin_means(fair, id);
    const std::vector<double> a = bin_means(attacked, id);
    if (f.size() != a.size()) return -1.0;
    std::vector<double> deltas;
    for (std::size_t b = 0; b < f.size(); ++b) {
      deltas.push_back(std::isnan(f[b]) || std::isnan(a[b])
                           ? 0.0
                           : std::fabs(a[b] - f[b]));
    }
    std::sort(deltas.rbegin(), deltas.rend());
    overall += (deltas.size() > 0 ? deltas[0] : 0.0) +
               (deltas.size() > 1 ? deltas[1] : 0.0);
  }
  return overall;
}

challenge::Submission reorder(const challenge::Challenge& ch,
                              const challenge::Submission& submission,
                              core::CorrelationMode mode, Rng rng) {
  challenge::Submission out;
  out.label = submission.label + "-reordered";
  for (ProductId id : ch.targets()) {
    const auto rs = submission.for_product(id);
    if (rs.empty()) continue;
    std::vector<double> values;
    std::vector<Day> times;
    for (const auto& r : rs) {
      values.push_back(r.value);
      times.push_back(r.time);
    }
    const auto mapped = core::map_values_to_times(
        values, times, mode, ch.fair().product(id), rng);
    for (std::size_t k = 0; k < mapped.size(); ++k) {
      rating::Rating r = rs[k];
      r.time = mapped[k].time;
      r.value = mapped[k].value;
      out.ratings.push_back(r);
    }
  }
  return out;
}

/// One whole round of the reproduction. Returns the MP evaluations it
/// issued; every check lands in `result`.
std::uint64_t repro_round(const Setup& setup, std::size_t threads,
                          Ledger& ledger, Result& result) {
  using Layer = Ledger::Layer;
  const challenge::Challenge& ch = *setup.challenge;
  const auto& population = setup.population;
  std::uint64_t evaluations = 0;

  // The schemes (and their timed wrappers when tracing).
  const aggregation::SaScheme sa_raw;
  const aggregation::BfScheme bf_raw;
  const aggregation::PScheme p_raw;
  const aggregation::MedianScheme med_raw;
  const aggregation::EntropyScheme ent_raw;
  auto p_variant = [](auto edit) {
    aggregation::PConfig config;
    edit(config.toggles);
    return std::make_unique<aggregation::PScheme>(config);
  };
  const auto no_mc_raw = p_variant([](auto& t) { t.use_mc = false; });
  const auto no_arc_raw = p_variant([](auto& t) { t.use_arc = false; });
  const auto no_hc_raw = p_variant([](auto& t) { t.use_hc = false; });
  const auto no_me_raw = p_variant([](auto& t) { t.use_me = false; });

  // P and its ablations fan their detector analysis out over the pool, so
  // a call into them from outside a fan-out costs `threads` wide.
  std::vector<std::unique_ptr<TimedScheme>> wrappers;
  std::set<const aggregation::AggregationScheme*> fans_out;
  auto wrap = [&](const aggregation::AggregationScheme& s,
                  Kind kind) -> const aggregation::AggregationScheme& {
    const std::size_t width = kind == kP ? threads : 1;
    const aggregation::AggregationScheme* out = &s;
    if (ledger.clock != nullptr) {
      wrappers.push_back(
          std::make_unique<TimedScheme>(s, kind, width, *ledger.clock));
      out = wrappers.back().get();
    }
    if (width > 1) fans_out.insert(out);
    return *out;
  };
  auto width_of = [&](const aggregation::AggregationScheme& s) {
    return fans_out.count(&s) > 0 ? threads : std::size_t{1};
  };
  const auto& sa = wrap(sa_raw, kSa);
  const auto& bf = wrap(bf_raw, kBf);
  const auto& p = wrap(p_raw, kP);
  const auto& med = wrap(med_raw, kMed);
  const auto& ent = wrap(ent_raw, kEnt);
  const auto& no_mc = wrap(*no_mc_raw, kP);
  const auto& no_arc = wrap(*no_arc_raw, kP);
  const auto& no_hc = wrap(*no_hc_raw, kP);  // also Figure 7's signal model
  const auto& no_me = wrap(*no_me_raw, kP);

  auto sweep = [&](const aggregation::AggregationScheme& scheme) {
    evaluations += population.size();
    return ledger.call(Layer::kChallengeSweep, threads, [&] {
      return challenge::analyze_population(ch, population, scheme);
    });
  };
  auto evaluate = [&](const challenge::Submission& s,
                      const aggregation::AggregationScheme& scheme) {
    ++evaluations;
    const challenge::MpResult mp =
        ledger.call(Layer::kChallengeEval, width_of(scheme),
                    [&] { return ch.evaluate(s, scheme); });
    result.check(mp.overall >= 0.0, "negative MP for " + s.label);
    return mp;
  };
  auto optimize = [&](const core::AttackGenerator& gen,
                      const aggregation::AggregationScheme& scheme,
                      const core::RegionSearchOptions& opts,
                      const core::AttackProfile& timing) {
    const core::RegionSearchResult r =
        ledger.call(Layer::kRegionSearch, threads,
                    [&] { return gen.optimize(scheme, opts, timing); });
    evaluations += r.rounds.size() * opts.grid * opts.grid * opts.trials;
    result.check(r.best_mp >= 0.0, "negative region-search MP");
    return r;
  };
  auto generate = [&](const core::AttackGenerator& gen,
                      const core::AttackProfile& profile,
                      std::uint64_t stream) {
    return ledger.call(Layer::kCore, 1,
                       [&] { return gen.generate(profile, stream); });
  };

  // ------------------------------------------ table + figures 2, 3, 4
  const auto sa_pts = sweep(sa);
  const auto bf_pts = sweep(bf);
  const auto p_pts = sweep(p);
  const auto med_pts = sweep(med);
  const auto ent_pts = sweep(ent);
  const auto no_mc_pts = sweep(no_mc);
  const auto no_arc_pts = sweep(no_arc);
  const auto no_hc_pts = sweep(no_hc);
  const auto no_me_pts = sweep(no_me);

  struct Named {
    const char* name;
    const aggregation::AggregationScheme* scheme;
    const std::vector<challenge::VarianceBiasPoint>* points;
  };
  const Named all[] = {
      {"SA", &sa, &sa_pts},         {"BF", &bf, &bf_pts},
      {"P", &p, &p_pts},            {"MED", &med, &med_pts},
      {"ENT", &ent, &ent_pts},      {"P-no-MC", &no_mc, &no_mc_pts},
      {"P-no-ARC", &no_arc, &no_arc_pts}, {"P-no-HC", &no_hc, &no_hc_pts},
      {"P-no-ME", &no_me, &no_me_pts},
  };
  for (const Named& n : all) {
    for (const auto& pt : *n.points) {
      result.check(pt.overall_mp >= 0.0 && pt.product_mp >= 0.0,
                   std::string("negative MP under ") + n.name);
    }
  }
  const double sa_max = max_mp(sa_pts);
  const double bf_max = max_mp(bf_pts);
  const double p_max = max_mp(p_pts);
  std::fprintf(stderr,
               "repro: max MP SA %.3f BF %.3f P %.3f MED %.3f ENT %.3f | "
               "no-MC %.3f no-ARC %.3f no-HC %.3f no-ME %.3f\n",
               sa_max, bf_max, p_max, max_mp(med_pts), max_mp(ent_pts),
               max_mp(no_mc_pts), max_mp(no_arc_pts), max_mp(no_hc_pts),
               max_mp(no_me_pts));
  result.check(p_max < 0.7 * sa_max && p_max < 0.95 * bf_max,
               "table: P-scheme max MP is well below both SA and BF max MP");
  result.check(bf_max > 0.5 * sa_max,
               "table: BF max MP is comparable to SA max MP");
  result.check(max_mp(no_arc_pts) >= p_max,
               "table: removing the arrival-rate detectors weakens P");

  const RegionCounts fig2 = lmp_regions(p_pts);
  result.check(fig2.r3 >= fig2.r1 && fig2.r3 >= fig2.r2,
               "fig2: strong downgrades against P concentrate in R3");
  const RegionCounts fig3 = lmp_regions(sa_pts);
  result.check(fig3.r1 > fig3.r2 && fig3.r1 > fig3.r3,
               "fig3: without a defense strong downgrades concentrate in R1");
  const RegionCounts fig4 = lmp_regions(bf_pts);
  result.check(corner_winners(bf_pts) < corner_winners(sa_pts),
               "fig4: BF empties the bottom-left corner that wins under SA");
  result.check(fig4.r1 >= fig4.r3,
               "fig4: strong downgrades against BF still favour large bias");

  // SA-scheme MP of every submission, recomputed from the raw ratings.
  for (std::size_t i = 0; i < population.size(); ++i) {
    const double expect = sa_mp_independent(ch, population[i]);
    result.check(std::fabs(expect - sa_pts[i].overall_mp) <= 1e-9,
                 "SA MP of " + population[i].label + " is " +
                     fmt17(sa_pts[i].overall_mp) + ", plain bin means give " +
                     fmt17(expect));
  }
  // Each scheme's strongest submission through the materialized path.
  for (const Named& n : all) {
    std::size_t best = 0;
    for (std::size_t i = 0; i < n.points->size(); ++i) {
      if ((*n.points)[i].overall_mp > (*n.points)[best].overall_mp) best = i;
    }
    ++evaluations;
    const double materialized =
        ledger.call(Layer::kChallengeEval, width_of(*n.scheme), [&] {
      return ch.metric()
          .evaluate_dataset(ch.apply(population[best]), *n.scheme)
          .overall;
    });
    result.check(materialized == (*n.points)[best].overall_mp,
                 std::string("materialized MP differs from overlay MP under ") +
                     n.name);
  }

  // ------------------------------------------------------------ figure 5
  {
    const core::AttackGenerator generator(ch, 4242);
    core::AttackProfile timing;
    timing.duration_days = 50.0;
    timing.offset_days = 5.0;
    for (double bias = -3.75; bias <= -0.3; bias += 0.75) {
      for (double sigma = 0.1; sigma <= 1.9; sigma += 0.45) {
        core::AttackProfile probe = timing;
        probe.bias = bias;
        probe.sigma = sigma;
        for (std::uint64_t draw = 0; draw < 2; ++draw) {
          (void)evaluate(generate(generator, probe, 900 + draw), p);
        }
      }
    }
    core::RegionSearchOptions options;
    options.trials = 12;
    core::AttackProfile burst = timing;
    burst.duration_days = 30.0;
    burst.offset_days = 26.0;
    core::AttackProfile spread = timing;
    spread.offset_days = 0.0;
    spread.duration_days = ch.config().window.length() - 1.0;
    core::RegionSearchResult search = optimize(generator, p, options, timing);
    for (const auto& t : {burst, spread}) {
      const auto r = optimize(generator, p, options, t);
      if (r.best_mp > search.best_mp) search = r;
    }
    std::fprintf(stderr, "repro: fig5 center bias %.3f sigma %.3f mp %.3f\n",
                 search.best_bias, search.best_sigma, search.best_mp);
    result.check(search.best_bias > -3.2 && search.best_bias < -0.8 &&
                     search.best_sigma > 0.5,
                 "fig5: the search converges to the R3 region");
    result.check(search.best_mp >= 0.95 * p_max,
                 "fig5: the generated attack matches or beats every "
                 "submission");
  }

  // ------------------------------------------------------------ figure 6
  {
    const core::AttackGenerator generator(ch, 606);
    const ProductId product(1);
    const double window_days = ch.config().window.length();
    const std::vector<double> intervals{0.2, 0.4, 0.8, 1.2, 1.6, 2.0, 3.0,
                                        4.0, 6.0, 8.0, 10.0, 12.0, 14.0};
    double best_p_interval = 0.0, best_p_mp = -1.0;
    double best_sa_interval = 0.0, best_sa_mp = -1.0;
    for (double interval : intervals) {
      std::size_t count = ch.config().attack_raters;
      double duration = interval * static_cast<double>(count);
      if (duration > window_days - 1.0) {
        duration = window_days - 1.0;
        count = std::max<std::size_t>(
            2, static_cast<std::size_t>(duration / interval));
      }
      core::AttackProfile profile;
      profile.bias = -2.3;
      profile.sigma = 1.0;
      profile.duration_days = duration;
      profile.ratings_per_product = count;
      std::vector<double> p_mps, sa_mps;
      for (std::uint64_t draw = 0; draw < 5; ++draw) {
        const auto s = generate(generator, profile, 7000 + draw);
        p_mps.push_back(evaluate(s, p).per_product.at(product));
        sa_mps.push_back(evaluate(s, sa).per_product.at(product));
      }
      std::sort(p_mps.begin(), p_mps.end());
      std::sort(sa_mps.begin(), sa_mps.end());
      if (p_mps[2] > best_p_mp) {
        best_p_mp = p_mps[2];
        best_p_interval = interval;
      }
      if (sa_mps[2] > best_sa_mp) {
        best_sa_mp = sa_mps[2];
        best_sa_interval = interval;
      }
    }
    result.check(best_p_interval > intervals.front() &&
                     best_p_interval < intervals.back(),
                 "fig6: under P the best interval is interior");
    result.check(best_sa_interval <= 1.2,
                 "fig6: without detection the best interval is small");
  }

  // ------------------------------------------------------------ figure 7
  {
    auto top10_heuristic_wins =
        [&](const aggregation::AggregationScheme& scheme,
            const std::vector<challenge::VarianceBiasPoint>& pts) {
          std::vector<std::pair<double, std::size_t>> scored;
          for (std::size_t i = 0; i < pts.size(); ++i) {
            scored.emplace_back(pts[i].overall_mp, i);
          }
          std::sort(scored.rbegin(), scored.rend());
          int wins = 0;
          for (int k = 0; k < 10; ++k) {
            const auto& submission = population[scored[k].second];
            Rng rng(4096 + static_cast<std::uint64_t>(k));
            const auto heuristic_sub = ledger.call(Layer::kCore, 1, [&] {
              return reorder(ch, submission,
                             core::CorrelationMode::kHeuristic, rng.fork(0));
            });
            const double heuristic = evaluate(heuristic_sub, scheme).overall;
            double random = 0.0;
            for (int j = 0; j < 5; ++j) {
              const auto random_sub = ledger.call(Layer::kCore, 1, [&] {
                return reorder(ch, submission, core::CorrelationMode::kRandom,
                               rng.fork(10 + static_cast<std::uint64_t>(j)));
              });
              random += evaluate(random_sub, scheme).overall;
            }
            if (heuristic >= random / 5.0) ++wins;
          }
          return wins;
        };
    const int signal_wins = top10_heuristic_wins(no_hc, no_hc_pts);
    (void)top10_heuristic_wins(p, p_pts);
    result.check(signal_wins >= 6,
                 "fig7: Procedure-3 correlation beats random ordering most "
                 "of the time against the signal-model detectors");
  }

  // ------------------------------------------------------------ figure 8
  {
    const core::AttackGenerator generator(ch, 808);
    const core::ParameterRanges ranges;
    for (std::uint64_t stream = 0; stream < 8; ++stream) {
      const core::AttackProfile profile =
          generator.sample_profile(ranges, stream);
      const auto s = generate(generator, profile, stream);
      (void)evaluate(s, sa);
      (void)evaluate(s, p);
    }
    core::AttackProfile timing;
    timing.duration_days = 50.0;
    timing.offset_days = 5.0;
    core::RegionSearchOptions options;
    options.trials = 5;
    const auto r_sa = optimize(generator, sa, options, timing);
    const auto r_bf = optimize(generator, bf, options, timing);
    const auto r_p = optimize(generator, p, options, timing);
    result.check(r_sa.best_bias < r_p.best_bias,
                 "fig8: larger negative bias learned against SA than P");
    result.check(r_p.best_sigma >= r_sa.best_sigma - 0.25,
                 "fig8: larger variance learned against P than SA");
    result.check(r_p.best_mp <= r_sa.best_mp && r_p.best_mp <= r_bf.best_mp,
                 "fig8: the learned attack is weakest against P");
  }
  return evaluations;
}

}  // namespace

Result run_repro(const Options& options) {
  Result result;
  std::vector<double> setup_times;
  auto timed_setup = [&] {
    const auto start = SteadyClock::now();
    Setup s = make_setup();
    setup_times.push_back(seconds_since(start));
    return s;
  };

  // Half the set-ups before the rounds and the rest after, so that their
  // median spans the run rather than one moment of it.
  while (setup_times.size() < kSetups / 2) (void)timed_setup();

  // Whole rounds until --seconds have passed. A traced run makes two
  // untraced rounds first (the first warms the process up) and compares
  // the traced round with the second.
  std::vector<double> walls;
  std::vector<double> cpus;
  double untraced_wall = 0.0;
  const auto run_start = SteadyClock::now();
  do {
    const Setup setup = timed_setup();
    Ledger off;
    const double cpu0 = process_cpu_s();
    const auto start = SteadyClock::now();
    result.attempted += repro_round(setup, util::thread_count(), off, result);
    walls.push_back(seconds_since(start));
    cpus.push_back(process_cpu_s() - cpu0);
    untraced_wall = walls.back();
  } while (options.trace ? walls.size() < 2
                         : seconds_since(run_start) < options.seconds);
  while (setup_times.size() < kSetups) (void)timed_setup();

  result.put("setup_s", median(setup_times), "s");
  result.put("wall_s", median(walls), "s");
  result.put("cpu_s", median(cpus), "s");
  result.put("peak_rss_mb", peak_rss_mib(), "MiB");

  if (options.trace) {
    const Setup setup = timed_setup();
    SchemeClock clock;
    Ledger ledger;
    ledger.clock = &clock;
    const RegistryView before = scrape_local();
    const auto start = SteadyClock::now();
    const std::uint64_t evaluations =
        repro_round(setup, util::thread_count(), ledger, result);
    const double wall = seconds_since(start);
    const RegistryView delta = registry_delta(scrape_local(), before);
    result.attempted += evaluations;

    double scheme_busy = 0.0;
    for (int k = 0; k < kKinds; ++k) {
      const double busy = 1e-9 * static_cast<double>(clock.ns[k].load());
      scheme_busy += busy;
      result.put(std::string("aggregation.") + kKindNames[k] + ".busy_s",
                 busy, "s");
      result.put(std::string("aggregation.") + kKindNames[k] + ".calls",
                 static_cast<double>(clock.calls[k].load()), "count");
    }
    const double detector_busy = put_detector_metrics(result, delta);
    const double budget = wall + ledger.fanout_extra;
    const double self_aggregation = scheme_busy - detector_busy;
    result.put("budget_s", budget, "s");
    result.put("self.aggregation_s", self_aggregation, "s");
    result.put("self.detectors_s", detector_busy, "s");
    result.put("self.challenge_s", ledger.challenge_self, "s");
    result.put("self.core_s", ledger.core_self, "s");
    result.put("unattributed_s",
               budget - self_aggregation - detector_busy -
                   ledger.challenge_self - ledger.core_self,
               "s");
    result.put("trace_overhead_s", wall - untraced_wall, "s");
    result.put("challenge.mp_evaluations",
               static_cast<double>(clock.overlay_calls.load()), "count");
    result.put("challenge.evaluate.self_s", ledger.evaluate_self, "s");
    result.put("core.region_search.busy_s", ledger.region_search_busy, "s");
  }
  return result;
}

}  // namespace rab::e2e
