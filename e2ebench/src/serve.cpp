// Workload `serve`: `rab serve` with a store and checkpoints, fed over
// protocol-v2 sessions in an open loop at a fixed rate below the point
// where shard queues fill, with a low fixed-rate stream of
// trust/series/alarms queries beside it. At the end the server is drained
// and restarted on its store.
//
// Feed (seeded): fair data from FairDataGenerator (400 products, 180
// days) plus planted downgrade bursts, merged in time order, split by
// server shard, and cut to the same number of ratings on every shard. Each
// shard's subfeed then ends with two seed-independent parts: a one-rating
// frame at day 365, which crosses epoch boundaries and so triggers a
// checkpoint that makes everything before it durable, and kTailFrames
// frames in the same epoch. The store commits a group only when
// store_group_ratings ratings are pending or a checkpoint runs, so the
// tail frames never become durable while the server runs: they are the
// operations that fail, the same number in every round and for every
// seed.
//
// Measured: setup_s is the feed build plus the median start of a server on
// an empty store until it answers ping. wall_s runs from the first frame's
// due time until the day-365 frame is durable on every shard; the
// open-loop schedule is most of it. The server's own share, summed over
// shards, is serve.epoch_stall_s: from when each frame that crosses an
// epoch boundary was due until it was durable.
//
// Checks: every rating is acked and ingested exactly once; each shard's
// epochs, alarms and trust equal those of an in-process OnlineMonitor fed
// that shard's subfeed; the restarted server answers stats, trust and
// alarms exactly as before the drain.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <deque>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "detectors/online_monitor.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "rating/fair_generator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace rab::e2e {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kShards = 4;
constexpr std::size_t kProducts = 400;
constexpr double kDays = 180.0;
constexpr double kArrivalRate = 16.0;      ///< fair ratings/product/day
constexpr std::size_t kRaterPool = 20000;
constexpr std::size_t kPerShard = 250000;  ///< seeded ratings per shard
constexpr std::size_t kBatch = 500;        ///< ratings per frame
constexpr std::size_t kTailFrames = 2;
constexpr double kSentinelDay = 365.0;
constexpr std::size_t kAttackedProducts = 24;
constexpr std::size_t kAttackers = 50;
constexpr std::size_t kAttackRatings = 50;
constexpr double kRatingsPerSecond = 100000.0;  ///< offered load, all shards
constexpr double kQueriesPerSecond = 120.0;
constexpr double kSentinelTimeoutSeconds = 30.0;
constexpr double kSettleSeconds = 1.0;
constexpr int kSetups = 41;

// ------------------------------------------------------------------ feed

struct Feed {
  std::vector<std::vector<rating::Rating>> shard;  ///< per-shard subfeed
  std::vector<std::vector<std::size_t>> frame_end;  ///< per-shard frame ends
  std::vector<std::int64_t> query_raters;
  std::vector<std::int64_t> query_products;
  [[nodiscard]] std::size_t ratings() const {
    std::size_t n = 0;
    for (const auto& s : shard) n += s.size();
    return n;
  }
};

Feed make_feed(std::uint64_t seed) {
  rating::FairDataConfig config;
  config.product_count = kProducts;
  config.history_days = kDays;
  config.base_arrival_rate = kArrivalRate;
  config.honest_rater_pool = kRaterPool;
  config.seed = seed;
  // The same per-product streams FairDataGenerator::generate() gathers,
  // generated over the analysis pool (each stream depends only on the
  // seed and its product id).
  const rating::FairDataGenerator generator(config);
  std::vector<ProductId> products;
  for (std::size_t p = 1; p <= kProducts; ++p) {
    products.emplace_back(static_cast<std::int64_t>(p));
  }
  std::vector<std::vector<rating::Rating>> streams(kProducts);
  util::parallel_for(kProducts, [&](std::size_t i) {
    streams[i] = generator.generate_product(products[i]).to_rows();
  });
  std::vector<rating::Rating> all;
  for (const auto& rows : streams) all.insert(all.end(), rows.begin(), rows.end());
  // Planted downgrade bursts: a squad of kAttackers raters, each attacked
  // product gets kAttackRatings low ratings inside a six-day window.
  Rng rng(seed ^ 0x5e4fe7a11ULL);
  std::set<std::size_t> attacked;
  while (attacked.size() < kAttackedProducts) {
    attacked.insert(static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(products.size()))));
  }
  for (const std::size_t index : attacked) {
    const double start = rng.uniform(20.0, 140.0);
    for (std::size_t k = 0; k < kAttackRatings; ++k) {
      rating::Rating r;
      r.time = start + rng.uniform(0.0, 6.0);
      r.value = rng.uniform(0.0, 1.0) < 0.7 ? 1.0 : 2.0;
      r.rater = RaterId(1'000'000 + static_cast<std::int64_t>(k % kAttackers));
      r.product = products[index];
      r.unfair = true;
      all.push_back(r);
    }
  }
  std::sort(all.begin(), all.end(), rating::ByTime{});

  Feed feed;
  feed.shard.resize(kShards);
  for (const rating::Rating& r : all) {
    auto& sub = feed.shard[net::shard_of(r.product.value(), kShards)];
    if (sub.size() < kPerShard) sub.push_back(r);
  }
  feed.frame_end.resize(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    auto& sub = feed.shard[s];
    if (sub.size() < kPerShard || sub.front().time >= 5.0) {
      throw std::runtime_error("serve feed: shard " + std::to_string(s) +
                               " is short or starts late");
    }
    for (std::size_t end = kBatch; end <= sub.size(); end += kBatch) {
      feed.frame_end[s].push_back(end);
    }
    // Seed-independent end of the stream (see the file comment).
    std::int64_t product = -1;
    for (ProductId id : products) {
      if (net::shard_of(id.value(), kShards) == s) {
        product = id.value();
        break;
      }
    }
    rating::Rating sentinel;
    sentinel.time = kSentinelDay;
    sentinel.value = 4.0;
    sentinel.rater = RaterId(999'000);
    sentinel.product = ProductId(product);
    sub.push_back(sentinel);
    feed.frame_end[s].push_back(sub.size());
    for (std::size_t f = 0; f < kTailFrames; ++f) {
      for (std::size_t k = 0; k < kBatch; ++k) {
        rating::Rating r = sentinel;
        r.time = kSentinelDay + 1e-4 * static_cast<double>(f * kBatch + k + 1);
        r.rater = RaterId(999'001 + static_cast<std::int64_t>(k));
        sub.push_back(r);
      }
      feed.frame_end[s].push_back(sub.size());
    }
  }
  for (std::size_t k = 0; k < 8; ++k) {
    feed.query_raters.push_back(1'000'000 + static_cast<std::int64_t>(k));
    feed.query_raters.push_back(static_cast<std::int64_t>(
        rng.uniform(0.0, static_cast<double>(kRaterPool))));
  }
  for (std::size_t k = 0; k < 16; ++k) {
    feed.query_products.push_back(
        products[static_cast<std::size_t>(
                     rng.uniform(0.0, static_cast<double>(products.size())))]
            .value());
  }
  return feed;
}

// ---------------------------------------------------------- the server

/// One `rab serve` child process. The destructor kills and reaps it if it
/// is still running.
class ServerProcess {
 public:
  ServerProcess(const Options& options, const std::string& dir) : dir_(dir) {
    const std::string rab = options.rab;
    std::vector<std::string> args{rab,
                                  "serve",
                                  "--listen",
                                  "unix:" + dir + "/serve.sock",
                                  "--shards",
                                  std::to_string(kShards),
                                  "--store-dir",
                                  dir + "/store",
                                  "--checkpoint-dir",
                                  dir + "/ckpt"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, (dir + "/serve.out").c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, (dir + "/serve.err").c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int rc = posix_spawn(&pid_, rab.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + rab);
    addr_ = net::Addr::parse("unix:" + dir + "/serve.sock");
  }
  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Waits for the listening line, then for a `ping` reply.
  void wait_ready(double timeout_s) {
    const auto start = SteadyClock::now();
    for (;;) {
      std::ifstream err(dir_ + "/serve.err");
      const std::string text((std::istreambuf_iterator<char>(err)),
                             std::istreambuf_iterator<char>());
      if (text.find("listening on") != std::string::npos) break;
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("rab serve exited at start: " + text);
      }
      if (seconds_since(start) > timeout_s) {
        throw std::runtime_error("rab serve did not start");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    net::Client client(addr_);
    if (client.ping().find("pong") == std::string::npos) {
      throw std::runtime_error("rab serve: bad ping reply");
    }
  }

  /// Waits for the process to exit (after a drain); false on timeout.
  bool wait_exit(double timeout_s) {
    const auto start = SteadyClock::now();
    while (seconds_since(start) < timeout_s) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  /// user+system CPU seconds so far, from /proc.
  [[nodiscard]] double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::istringstream fields(text.substr(text.rfind(')') + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14 || i == 15) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set (VmHWM) in MiB, from /proc.
  [[nodiscard]] double peak_rss_mib() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;  // kB
      }
    }
    return 0.0;
  }

  [[nodiscard]] const net::Addr& addr() const { return addr_; }

 private:
  std::string dir_;
  pid_t pid_ = -1;
  net::Addr addr_;
};

const std::vector<std::string>& scraped_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n{
        "serve.queue.depth",      "serve.ingest.seconds",
        "serve.retries",          "monitor.epoch.seconds",
        "monitor.epochs",         "checkpoint.save.seconds",
        "checkpoint.saves",       "checkpoint.restore.seconds",
        "store.groups",           "store.fsyncs",
        "store.appended_ratings", "store.mapped_bytes",
        "cache.hits",             "cache.partial_hits",
        "cache.misses"};
    for (const std::string& d : detector_names()) {
      n.push_back("detector." + d + ".seconds");
    }
    return n;
  }();
  return names;
}

RegistryView scrape_server(const net::Addr& addr) {
  net::Client client(addr);
  return parse_prometheus(client.metrics(), scraped_names());
}

// ------------------------------------------------------- expected replies

std::string expected_alarms(
    const std::deque<detectors::OnlineMonitor>& monitors) {
  std::string items;
  std::string next = "[";
  std::size_t emitted = 0;
  for (std::size_t s = 0; s < monitors.size(); ++s) {
    for (const detectors::Alarm& a : monitors[s].alarms()) {
      if (emitted++ > 0) items += ',';
      items += "{\"shard\":" + std::to_string(s) +
               ",\"product\":" + std::to_string(a.product.value()) +
               ",\"begin\":" + fmt17(a.interval.begin) +
               ",\"end\":" + fmt17(a.interval.end) +
               ",\"raised_at\":" + fmt17(a.raised_at) +
               ",\"marked\":" + std::to_string(a.marked_ratings) + "}";
    }
    next += (s > 0 ? "," : "") + std::to_string(monitors[s].alarms().size());
  }
  return "{\"type\":\"alarms\",\"since\":0,\"alarms\":[" + items +
         "],\"next_since\":" + next + "]}";
}

std::string expected_trust(
    const std::deque<detectors::OnlineMonitor>& monitors,
    std::int64_t rater) {
  std::string out = "{\"type\":\"trust\",\"rater\":" + std::to_string(rater) +
                    ",\"shards\":[";
  double min_trust = 1.0;
  for (std::size_t s = 0; s < monitors.size(); ++s) {
    const trust::TrustManager& t = monitors[s].trust();
    const double value = t.trust(RaterId(rater));
    const bool known = t.successes(RaterId(rater)) > 0.0 ||
                       t.failures(RaterId(rater)) > 0.0;
    if (s > 0) out += ',';
    out += "{\"shard\":" + std::to_string(s) + ",\"trust\":" + fmt17(value) +
           ",\"known\":" + (known ? "true" : "false") + "}";
    min_trust = std::min(min_trust, value);
  }
  return out + "],\"min\":" + fmt17(min_trust) + "}";
}

/// The per-shard part of a `stats` reply that survives a restart
/// (ingested, resident, compacted, epochs, alarms), one entry per shard.
std::vector<std::string> stats_core(const std::string& stats) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = stats.find("{\"shard\":", pos)) != std::string::npos) {
    const std::size_t end = stats.find(",\"accepted\"", pos);
    if (end == std::string::npos) break;
    out.push_back(stats.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

std::vector<std::string> expected_stats_core(
    const std::deque<detectors::OnlineMonitor>& monitors) {
  std::vector<std::string> out;
  for (std::size_t s = 0; s < monitors.size(); ++s) {
    const detectors::OnlineMonitor& m = monitors[s];
    out.push_back("{\"shard\":" + std::to_string(s) +
                  ",\"ingested\":" + std::to_string(m.ingested()) +
                  ",\"resident\":" + std::to_string(m.resident_ratings()) +
                  ",\"compacted\":" + std::to_string(m.compacted_ratings()) +
                  ",\"epochs\":" + std::to_string(m.epoch_stats().size()) +
                  ",\"alarms\":" + std::to_string(m.alarms().size()));
  }
  return out;
}

struct Answers {
  std::vector<std::string> stats;
  std::string alarms;
  std::vector<std::string> trust;
  bool operator==(const Answers&) const = default;
};

Answers query_answers(const net::Addr& addr, const Feed& feed) {
  net::Client client(addr);
  Answers a;
  a.stats = stats_core(client.stats());
  a.alarms = client.alarms(0);
  for (const std::int64_t rater : feed.query_raters) {
    a.trust.push_back(client.trust(rater));
  }
  return a;
}

/// The in-process reference: one OnlineMonitor per shard subfeed, and the
/// frames whose first rating past an epoch boundary makes the server
/// analyze the closed epoch and checkpoint (per shard, ascending).
struct Reference {
  std::deque<detectors::OnlineMonitor> monitors;
  std::vector<std::vector<std::size_t>> crossing_frames;
};

Reference make_reference(const Feed& feed) {
  Reference ref;
  ref.crossing_frames.resize(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto& sub = feed.shard[s];
    ref.monitors.emplace_back(detectors::OnlineConfig{});
    ref.monitors.back().ingest(std::span<const rating::Rating>(sub));
    std::size_t frame = 0;
    std::size_t row = 0;
    for (const detectors::OnlineEpochStats& e :
         ref.monitors.back().epoch_stats()) {
      while (row < sub.size() && sub[row].time < e.epoch_end) ++row;
      while (frame < feed.frame_end[s].size() &&
             feed.frame_end[s][frame] <= row) {
        ++frame;
      }
      auto& frames = ref.crossing_frames[s];
      if (frame < feed.frame_end[s].size() &&
          (frames.empty() || frames.back() != frame)) {
        frames.push_back(frame);
      }
    }
  }
  return ref;
}

// ---------------------------------------------------------------- a round

struct RoundOut {
  double wall = 0.0;    ///< first frame due -> day-365 frame durable
  double stall = 0.0;   ///< summed epoch-crossing frame due -> durable
  double window = 0.0;  ///< feed start -> end of settle
  double server_cpu = 0.0;
  double peak_rss = 0.0;
  double restart = 0.0;
  std::vector<double> durable_ms;
  std::vector<double> accept_ms;
  std::vector<double> query_ms;
  double late_max_ms = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  double queue_depth_max = 0.0;
  RegistryView feed_delta;     ///< server registry over the feed window
  RegistryView restart_view;   ///< restarted server's registry
};

RoundOut serve_round(const Options& options, const Feed& feed,
                     const Reference& ref, const std::string& dir, bool trace,
                     Result& result) {
  RoundOut out;
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::optional<ServerProcess> server;
  server.emplace(options, dir);
  server->wait_ready(60.0);
  const net::Addr addr = server->addr();

  const RegistryView before = trace ? scrape_server(addr) : RegistryView{};
  const double cpu0 = server->cpu_s();
  const double period =
      static_cast<double>(kBatch) * static_cast<double>(kShards) /
      kRatingsPerSecond;
  const auto t0 = SteadyClock::now() + std::chrono::milliseconds(50);
  auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(s));
  };
  std::size_t max_frames = 0;
  for (const auto& ends : feed.frame_end) {
    max_frames = std::max(max_frames, ends.size());
  }
  const double feed_end = period * static_cast<double>(max_frames);

  struct ShardOut {
    std::vector<double> durable_at;  ///< seconds since t0, <0 = never
    std::vector<double> accept_ms;
    double late_max = 0.0;
    std::uint64_t accepted = 0;
    std::uint64_t retries = 0;
    std::string error;
  };
  std::vector<ShardOut> shards(kShards);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      ShardOut& so = shards[s];
      const auto& ends = feed.frame_end[s];
      so.durable_at.assign(ends.size(), -1.0);
      try {
        net::ResilientConfig config;
        config.addr = addr;
        config.max_reconnects = 5;
        net::ResilientClient client(config);
        std::size_t durable = 0;  // frames [0, durable) are durable
        auto mark = [&](std::uint64_t durable_seq, double now) {
          while (durable < ends.size() && durable + 1 <= durable_seq) {
            so.durable_at[durable++] = now;
          }
        };
        std::size_t begin = 0;
        for (std::size_t f = 0; f < ends.size(); ++f) {
          const auto due = at(period * static_cast<double>(f));
          std::this_thread::sleep_until(due);
          so.late_max = std::max(
              so.late_max, std::chrono::duration<double>(
                               SteadyClock::now() - due).count());
          const auto r = client.rate_seq(
              f + 1, std::span<const rating::Rating>(
                         feed.shard[s].data() + begin, ends[f] - begin));
          const double now = seconds_since(t0);
          so.accept_ms.push_back(
              1e3 * (now - period * static_cast<double>(f)));
          so.accepted += r.accepted;
          so.retries += r.retries;
          mark(r.durable_seq, now);
          begin = ends[f];
        }
        // Settle: probe the durable floor until the day-365 frame is
        // durable (at most kSentinelTimeoutSeconds after the feed), then
        // for kSettleSeconds more or until every frame is durable.
        const std::size_t sentinel = ends.size() - kTailFrames - 1;
        std::uint64_t seq = ends.size();
        for (;;) {
          const auto deadline =
              durable > sentinel
                  ? at(so.durable_at[sentinel] + kSettleSeconds)
                  : at(feed_end + kSentinelTimeoutSeconds);
          if (durable == ends.size() || SteadyClock::now() >= deadline) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          mark(client.probe(++seq).durable_seq, seconds_since(t0));
        }
      } catch (const std::exception& e) {
        so.error = e.what();
      }
    });
  }
  // Queries beside the feed, open loop at a fixed rate.
  std::vector<double> query_ms;
  std::string query_error;
  threads.emplace_back([&] {
    try {
      net::Client client(addr);
      const double qperiod = 1.0 / kQueriesPerSecond;
      for (std::size_t q = 0; qperiod * static_cast<double>(q) < feed_end;
           ++q) {
        const double due_s = qperiod * static_cast<double>(q);
        std::this_thread::sleep_until(at(due_s));
        std::string reply;
        switch (q % 3) {
          case 0:
            reply = client.trust(
                feed.query_raters[(q / 3) % feed.query_raters.size()]);
            break;
          case 1:
            reply = client.series(
                feed.query_products[(q / 3) % feed.query_products.size()]);
            break;
          default:
            reply = client.alarms(0);
            break;
        }
        if (reply.empty()) throw std::runtime_error("empty query reply");
        query_ms.push_back(1e3 * (seconds_since(t0) - due_s));
      }
    } catch (const std::exception& e) {
      query_error = e.what();
    }
  });
  // Traced rounds scrape the server's registry every 100 ms.
  std::atomic<bool> feeding{true};
  std::thread scraper;
  if (trace) {
    scraper = std::thread([&] {
      try {
        net::Client client(addr);
        while (feeding.load()) {
          const RegistryView v =
              parse_prometheus(client.metrics(), {"serve.queue.depth"});
          out.queue_depth_max =
              std::max(out.queue_depth_max, v.value("serve.queue.depth"));
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      } catch (const std::exception&) {
      }
    });
  }
  for (std::thread& t : threads) t.join();
  feeding.store(false);
  if (scraper.joinable()) scraper.join();
  out.window = seconds_since(t0);
  out.server_cpu = server->cpu_s() - cpu0;
  out.peak_rss = server->peak_rss_mib();
  if (trace) out.feed_delta = registry_delta(scrape_server(addr), before);

  std::uint64_t accepted = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const ShardOut& so = shards[s];
    result.check(so.error.empty(), "serve: shard feed failed: " + so.error);
    accepted += so.accepted;
    out.retries += so.retries;
    out.late_max_ms = std::max(out.late_max_ms, 1e3 * so.late_max);
    out.accept_ms.insert(out.accept_ms.end(), so.accept_ms.begin(),
                         so.accept_ms.end());
    for (std::size_t f = 0; f < so.durable_at.size(); ++f) {
      ++out.frames;
      if (so.durable_at[f] < 0.0) {
        ++out.failed;
        continue;
      }
      out.durable_ms.push_back(
          1e3 * (so.durable_at[f] - period * static_cast<double>(f)));
    }
    // A frame that crosses an epoch boundary is durable once the shard has
    // analyzed the closed epoch and checkpointed, behind whatever was
    // queued before it; the day-365 frame is the last of them.
    for (const std::size_t f : ref.crossing_frames[s]) {
      if (f >= so.durable_at.size() || so.durable_at[f] < 0.0) {
        result.check(false, "serve: epoch-crossing frame " +
                                std::to_string(f) + " of shard " +
                                std::to_string(s) + " never became durable");
        continue;
      }
      out.stall += so.durable_at[f] - period * static_cast<double>(f);
      out.wall = std::max(out.wall, so.durable_at[f]);
    }
  }
  out.query_ms = std::move(query_ms);
  result.check(query_error.empty(), "serve: query failed: " + query_error);
  result.check(accepted == feed.ratings(),
               "serve: " + std::to_string(accepted) + " ratings acked of " +
                   std::to_string(feed.ratings()));

  // Answers before the drain, then drain, restart on the store, compare.
  const Answers before_drain = query_answers(addr, feed);
  {
    net::Client client(addr);
    result.check(client.drain().find("drained") != std::string::npos,
                 "serve: drain failed");
  }
  result.check(server->wait_exit(60.0), "serve: server did not exit cleanly");
  server.reset();

  const auto restart_start = SteadyClock::now();
  server.emplace(options, dir);
  server->wait_ready(60.0);
  out.restart = seconds_since(restart_start);
  if (trace) out.restart_view = scrape_server(addr);
  const Answers after_restart = query_answers(addr, feed);
  result.check(after_restart == before_drain,
               "serve: restarted server answers differ from before the drain");
  {
    net::Client client(addr);
    (void)client.drain();
  }
  result.check(server->wait_exit(60.0), "serve: restarted server did not exit");
  server.reset();

  const auto& monitors = ref.monitors;
  result.check(before_drain.stats == expected_stats_core(monitors),
               "serve: per-shard ingested/epochs/alarms differ from the "
               "in-process reference");
  result.check(before_drain.alarms == expected_alarms(monitors),
               "serve: alarms differ from the in-process reference");
  std::size_t alarms = 0;
  for (const auto& m : monitors) alarms += m.alarms().size();
  result.check(alarms > 0, "serve: the planted attacks raised no alarm");
  bool trust_moved = false;
  for (std::size_t i = 0; i < feed.query_raters.size(); ++i) {
    const std::string expect = expected_trust(monitors, feed.query_raters[i]);
    result.check(i < before_drain.trust.size() &&
                     before_drain.trust[i] == expect,
                 "serve: trust of rater " +
                     std::to_string(feed.query_raters[i]) +
                     " differs from the in-process reference");
    for (const auto& m : monitors) {
      if (m.trust().trust(RaterId(feed.query_raters[i])) < 0.5) {
        trust_moved = true;
      }
    }
  }
  result.check(trust_moved, "serve: no queried rater's trust fell below 0.5");
  fs::remove_all(dir);
  return out;
}

}  // namespace

Result run_serve(const Options& options) {
  Result result;
  const std::string root = options.work_dir + "/serve";

  // Set-up: the feed is built, and a server on an empty store answers
  // ping. The server's start, 3-4 ms, is taken kSetups times and its
  // median is added to the feed build.
  std::vector<double> starts;
  for (int i = 0; i < kSetups; ++i) {
    const std::string dir = root + "-setup";
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
      const auto start = SteadyClock::now();
      ServerProcess server(options, dir);
      server.wait_ready(60.0);
      starts.push_back(seconds_since(start));
      net::Client client(server.addr());
      (void)client.drain();
      result.check(server.wait_exit(60.0), "serve: set-up server did not exit");
    }
    fs::remove_all(dir);
  }

  const auto feed_start = SteadyClock::now();
  const Feed feed = make_feed(options.seed);
  const double feed_build = seconds_since(feed_start);
  result.put("setup_s", feed_build + median(starts), "s");
  result.put("rating.feed_build_s", feed_build, "s");
  result.put("serve.start_s", median(starts), "s");
  const Reference ref = make_reference(feed);

  std::vector<RoundOut> rounds;
  const auto run_start = SteadyClock::now();
  do {
    rounds.push_back(serve_round(options, feed, ref, root, false, result));
  } while (options.trace ? rounds.size() < 2
                         : seconds_since(run_start) < options.seconds);
  std::vector<double> walls, stalls, cpus, rss, restarts;
  std::vector<double> durable, accept, query;
  double late_max = 0.0;
  std::uint64_t retries = 0;
  for (const RoundOut& r : rounds) {
    walls.push_back(r.wall);
    stalls.push_back(r.stall);
    cpus.push_back(r.server_cpu);
    rss.push_back(r.peak_rss);
    restarts.push_back(r.restart);
    durable.insert(durable.end(), r.durable_ms.begin(), r.durable_ms.end());
    accept.insert(accept.end(), r.accept_ms.begin(), r.accept_ms.end());
    query.insert(query.end(), r.query_ms.begin(), r.query_ms.end());
    late_max = std::max(late_max, r.late_max_ms);
    retries += r.retries;
    result.attempted += r.frames;
    result.failed += r.failed;
  }
  result.put("wall_s", median(walls), "s");
  result.put("cpu_s", median(cpus), "s");
  result.put("peak_rss_mb", median(rss), "MiB");
  result.put("serve.durable_p50_ms", percentile(durable, 0.50), "ms");
  result.put("serve.durable_p99_ms", percentile(durable, 0.99), "ms");
  result.put("serve.query_p50_ms", percentile(query, 0.50), "ms");
  result.put("serve.query_p99_ms", percentile(query, 0.99), "ms");
  result.put("serve.queries", static_cast<double>(query.size()), "count");
  result.put("serve.restart_s", median(restarts), "s");
  result.put("serve.epoch_stall_s", median(stalls), "s");
  result.put("serve.frames", static_cast<double>(result.attempted), "count");
  result.put("net.accept_p50_ms", percentile(accept, 0.50), "ms");
  result.put("net.accept_p99_ms", percentile(accept, 0.99), "ms");
  result.put("net.generator_late_max_ms", late_max, "ms");
  result.put("serve.retries", static_cast<double>(retries), "count");

  if (options.trace) {
    const RoundOut traced = serve_round(options, feed, ref, root, true, result);
    result.attempted += traced.frames;
    result.failed += traced.failed;
    const RegistryView& d = traced.feed_delta;
    result.put("trace_overhead_s", traced.wall - rounds.back().wall, "s");
    put_detector_metrics(result, d);
    const RegistryView::Hist ingest = d.histogram("serve.ingest.seconds");
    const RegistryView::Hist epoch = d.histogram("monitor.epoch.seconds");
    const RegistryView::Hist save = d.histogram("checkpoint.save.seconds");
    result.put("serve.ingest.busy_s", ingest.sum, "s");
    result.put("monitor.epoch.busy_s", epoch.sum, "s");
    result.put("monitor.epoch.max_ms", 1e3 * epoch.max_bound, "ms");
    result.put("monitor.epochs", d.value("monitor.epochs"), "count");
    result.put("checkpoint.save.busy_s", save.sum, "s");
    result.put("checkpoint.saves", d.value("checkpoint.saves"), "count");
    result.put("checkpoint.restore.busy_s",
               traced.restart_view.histogram("checkpoint.restore.seconds").sum,
               "s");
    result.put("serve.queue.depth_max", traced.queue_depth_max, "count");
    const double stored = d.value("store.appended_ratings");
    result.put("store.groups", d.value("store.groups"), "count");
    result.put("store.ratings", stored, "count");
    result.put("store.fsyncs_per_1k",
               stored > 0.0 ? 1e3 * d.value("store.fsyncs") / stored : 0.0,
               "count");
    result.put("store.mapped_bytes",
               traced.restart_view.value("store.mapped_bytes"), "bytes");
    // Budget: shard-thread seconds over the feed window. Detector runs
    // happen on the analysis pool inside monitor.epoch, so they are
    // reported above but are not a separate line of this budget.
    const double budget = static_cast<double>(kShards) * traced.window;
    result.put("budget_s", budget, "s");
    result.put("self.serve.ingest_s", ingest.sum - epoch.sum - save.sum, "s");
    result.put("self.monitor.epoch_s", epoch.sum, "s");
    result.put("self.checkpoint.save_s", save.sum, "s");
    result.put("unattributed_s", budget - ingest.sum, "s");
  }
  return result;
}

}  // namespace rab::e2e
