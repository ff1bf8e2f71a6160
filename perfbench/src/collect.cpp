// collect and collect_query: continuous collection of N nodes through the
// whole tree, optionally with an open-loop query client on the root store.
#include <chrono>
#include <filesystem>
#include <thread>

#include "tree.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// Simulated nodes (see README.md, Sizing).
constexpr std::size_t kCollectNodes = 2048;
/// Open-loop query rate of collect_query.
constexpr double kQueryRate = 20.0;
/// Collection before the window opens, so the window's queries always see
/// at least 5 s of stored data.
constexpr auto kWarmup = std::chrono::seconds(5);
/// Every query client hands over to a fresh thread this often (see
/// QueryClient). The same queries run up to 30% faster or slower from one
/// client thread to the next (its scratch buffers, the vCPU it runs on), so
/// a run with a single client thread would draw that factor once, and its
/// median with it.
constexpr auto kClientSpell = std::chrono::seconds(1);
/// On the data at rest afterwards: kRestRounds rounds, each of
/// kRestRoundQueries queries of the mix (collect only; collect_query takes
/// its query latencies from the window) and one full-range scan, after
/// kRestWarmup unmeasured queries. The rounds run on kRestThreads fresh
/// client threads in turn, for the reason above. The scans cycle through the
/// data metrics, each the same number of times whatever the seed, so every
/// run scans the same columns.
constexpr int kRestWarmup = 20;
constexpr int kRestRounds = 2 * static_cast<int>(kNodeMetrics - 1);
constexpr int kRestRoundQueries = 8;
constexpr int kRestThreads = 18;
static_assert(kRestRounds % kRestThreads == 0);

/// Query @p k of the mix, ending at @p now: every tenth is wide (last 5 s x
/// all nodes x 1 metric), the rest are dashboards (last 10 s x 4 nodes x 2
/// metrics); nodes and metrics are seeded. A fixed 1-in-10 (not a seeded
/// 10%) keeps the number of wide queries, and so the tail, the same per run.
/// The wide window is short enough to be full of data from the first query
/// of the window on (see kWarmup), so every wide query does the same work;
/// a run holds about 30 s of data, so a longer window would still be filling.
ldmsxx::TsdbQuery NextQuery(ldmsxx::Rng& rng, std::uint64_t k,
                            std::size_t nodes, TimeNs now, bool* wide) {
  ldmsxx::TsdbQuery q;
  q.table = kRootTable;
  q.t1 = now;
  auto metric = [&rng] {
    return "metric_" + std::to_string(1 + rng.NextBelow(kNodeMetrics - 1));
  };
  *wide = k % 10 == 9;
  if (*wide) {
    q.t0 = now - 5 * kNsPerSec;
    q.metrics = {metric()};
    return q;
  }
  q.t0 = now - 10 * kNsPerSec;
  while (q.nodes.size() < 4) {
    const std::uint64_t n = rng.NextBelow(nodes);
    if (std::find(q.nodes.begin(), q.nodes.end(), n) == q.nodes.end()) {
      q.nodes.push_back(n);
    }
  }
  while (q.metrics.size() < 2) {
    std::string m = metric();
    if (q.metrics.empty() || q.metrics[0] != m) q.metrics.push_back(m);
  }
  return q;
}

struct QueryStats {
  std::vector<double> latency_ms;  ///< from the due time
  std::vector<double> late_ms;     ///< send time minus due time
  std::vector<std::uint64_t> service_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rows = 0;
  std::uint64_t considered = 0, pruned = 0, bytes_read = 0, decoded = 0;

  void Account(const ldmsxx::TsdbQueryResult& res) {
    rows += res.rows.size();
    considered += res.segments_considered;
    pruned += res.segments_pruned;
    bytes_read += res.bytes_read;
    decoded += res.bytes_decoded;
  }
};

/// One query against the root's inner store; returns failures (0 or 1).
std::uint64_t RunNodeQuery(const Tree& tree, const ldmsxx::TsdbQuery& q,
                           bool wide, const CollectCheck* stored,
                           std::uint64_t trace, QueryStats* stats) {
  Tracer* tracer = tree.tracer();
  const std::uint32_t span =
      tracer != nullptr ? tracer->Begin(SpanKind::kQuery, kTierRoot, trace, 0)
                        : 0;
  ldmsxx::TsdbQueryResult res;
  const auto t0 = std::chrono::steady_clock::now();
  Status st = tree.tsdb().Query(q, &res);
  const auto t1 = std::chrono::steady_clock::now();
  if (tracer != nullptr) {
    tracer->End(span, static_cast<std::uint32_t>(res.rows.size()));
  }
  stats->service_ns.push_back(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  ++stats->attempted;
  stats->Account(res);
  const bool bad = !st.ok() ||
                   CheckNodeAnswer(tree, q, res, stored, wide ? 256 : ~0ul) > 0;
  stats->failed += bad ? 1 : 0;
  return bad ? 1 : 0;
}

/// Open loop over [w0, w1): seeded Poisson arrivals at kQueryRate, as from
/// independent users. Each query is timed from the instant it was due, so a
/// stall also charges the queries queued behind it. Evenly spaced arrivals
/// would lock to the 1 s collection cycle: one query in 20 would always, or
/// never, land on the root's store burst, right at the p95. The queries due
/// in each kClientSpell are sent from a fresh thread.
void QueryClient(const Tree& tree, std::uint64_t seed, TimeNs w0, TimeNs w1,
                 QueryStats* stats) {
  ldmsxx::Rng rng(Mix(seed, 0x9e7));
  ldmsxx::Rng arrivals(Mix(seed, 0xa771));
  const double mean_gap_ns = 1e9 / kQueryRate;
  const DurationNs spell_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kClientSpell)
          .count();
  TimeNs due = w0 + static_cast<DurationNs>(
                        arrivals.NextExponential(mean_gap_ns));
  std::uint64_t k = 0;
  for (TimeNs spell_end = w0 + spell_ns; due < w1; spell_end += spell_ns) {
    std::thread([&] {
      for (; due < std::min(spell_end, w1); ++k) {
        TimeNs now = WallNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          now = WallNs();
        }
        bool wide = false;
        const ldmsxx::TsdbQuery q =
            NextQuery(rng, k, tree.nodes().size(), now, &wide);
        RunNodeQuery(tree, q, wide, nullptr, k + 1, stats);
        stats->late_ms.push_back(static_cast<double>(now - due) / 1e6);
        stats->latency_ms.push_back(static_cast<double>(WallNs() - due) /
                                    1e6);
        due += static_cast<DurationNs>(arrivals.NextExponential(mean_gap_ns));
      }
    }).join();
  }
}

}  // namespace

RunResult RunCollect(const Options& opt, bool traced, bool queries,
                     double seconds, int setups) {
  RunResult result;
  TreeConfig cfg;
  cfg.seed = opt.seed;
  cfg.nodes = kCollectNodes;
  cfg.leaves = 2;
  cfg.traced = traced;
  cfg.sample_capacity = SampleCapacity(seconds);

  // --- set-up, repeated; the last tree is the one measured ----------------
  std::vector<double> setup_s;
  std::unique_ptr<Tree> tree;
  for (int k = 0; k < setups; ++k) {
    Retire(std::move(tree));
    cfg.dir = opt.data_dir + "/collect" + std::to_string(k);
    fs::remove_all(cfg.dir);  // a store re-attaches whatever it finds
    // setup_s = building the sampler + starting every daemon until each set
    // is stored once at the root; the wait that aligns the start to the
    // schedule between the two is not counted.
    const auto b0 = std::chrono::steady_clock::now();
    tree = std::make_unique<Tree>(cfg);
    Status st = tree->Build();
    const double build_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - b0)
                               .count();
    AlignSetup();
    const auto t0 = std::chrono::steady_clock::now();
    if (st.ok()) st = tree->Start();
    if (!st.ok() || !tree->WaitReady(60)) {
      result.Fail("collection set-up failed: " + st.ToString());
      return result;
    }
    setup_s.push_back(build_s + std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count());
  }
  result.e2e["setup_s"] = Median(setup_s);
  std::this_thread::sleep_for(kWarmup);

  // --- measured window ----------------------------------------------------
  QueryStats qstats;
  const TreeSnapshot a = StartWindow(*tree);
  const TimeNs w1 = a.wall + static_cast<DurationNs>(seconds * 1e9);
  std::thread client;
  if (queries) {
    client = std::thread(
        [&] { QueryClient(*tree, opt.seed, a.wall, w1, &qstats); });
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(w1 - a.wall));
  const TreeSnapshot b = StopWindow(*tree);
  if (client.joinable()) client.join();

  const CollectCheck check = FinishCollection(*tree, a, b, &result);
  CollectionMetrics(*tree, a, b, &result);
  result.e2e["store_bytes_per_row"] =
      Ratio(static_cast<double>(SegmentBytes(cfg.dir + "/root_tsdb")),
            static_cast<double>(tree->tsdb().rows_written()));
  result.attempted += qstats.attempted;
  if (qstats.failed > 0) {
    result.Fail("window queries: " + std::to_string(qstats.failed) +
                    " failed or wrong",
                qstats.failed);
  }

  // --- on the data at rest: the query mix (collect only) and full scans -----
  // The queries end halfway between the last sampling burst and the next
  // tick. A window ending at the newest sample would start inside the burst
  // ten intervals back, and whether that burst's segment survives pruning
  // would depend on how the run's bursts jittered: 8.5 or 9.5 segments per
  // query, a tenth more work in one run than in the next.
  TimeNs newest = 0;
  for (const auto& node : tree->nodes()) {
    newest = std::max(newest, node->ts_of(node->seq()));
  }
  const TimeNs rest_end =
      newest - newest % kSampleInterval + kSampleInterval / 2;
  QueryStats rest, warmup;
  ldmsxx::Rng rng(Mix(opt.seed, 0x5e57));
  std::uint64_t k = 0;
  auto rest_queries = [&](int n, QueryStats* stats) {
    for (int i = 0; i < n; ++i, ++k) {
      bool wide = false;
      const ldmsxx::TsdbQuery q =
          NextQuery(rng, k, tree->nodes().size(), rest_end, &wide);
      RunNodeQuery(*tree, q, wide, &check, 0, stats);
    }
  };
  rest_queries(kRestWarmup, &warmup);
  // Per-scan rates, reported as their median: a scan now and then runs at
  // half speed (the first on a fresh thread, or one the host slows), and
  // summed rows over summed time would carry each of those into the result.
  std::vector<double> scan_mrows_per_s;
  auto rest_round = [&](int i) {
    if (!queries) rest_queries(kRestRoundQueries, &rest);
    ldmsxx::TsdbQuery q;
    q.table = kRootTable;
    q.metrics = {"metric_" +
                 std::to_string(1 + (opt.seed + i) % (kNodeMetrics - 1))};
    ldmsxx::TsdbQueryResult res;
    const auto t0 = std::chrono::steady_clock::now();
    Status st = tree->tsdb().Query(q, &res);
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    scan_mrows_per_s.push_back(
        Ratio(static_cast<double>(res.rows.size()) * 1e3, ns));
    ++result.attempted;
    if (!st.ok() || CheckNodeAnswer(*tree, q, res, &check, 4096) > 0) {
      result.Fail("full-range scan at rest wrong");
    }
  };
  for (int i = 0; i < kRestRounds;) {
    std::thread([&] {
      for (int j = 0; j < kRestRounds / kRestThreads; ++j) rest_round(i++);
    }).join();
  }
  result.attempted += rest.attempted + warmup.attempted;
  if (rest.failed + warmup.failed > 0) {
    result.Fail("queries at rest: " +
                    std::to_string(rest.failed + warmup.failed) + " wrong",
                rest.failed + warmup.failed);
  }
  result.e2e["scan_mrows_per_s"] = Median(scan_mrows_per_s);

  std::vector<double> query_ms = qstats.latency_ms;
  if (!queries) {
    for (const auto ns : rest.service_ns) {
      query_ms.push_back(static_cast<double>(ns) / 1e6);
    }
  }
  result.e2e["query_p50_ms"] = Percentile(query_ms, 0.50);
  // The tail is a per-layer metric: see README.md, End-to-end metrics.
  result.layer["query.p95_ms"] = Percentile(query_ms, 0.95);
  result.notes["query.p95_ms"] = result.layer["query.p95_ms"];
  result.notes["n.query"] = static_cast<double>(query_ms.size());
  result.notes["n.setup"] = static_cast<double>(setup_s.size());
  result.notes["query.at_rest"] = queries ? 0 : 1;
  if (queries) {
    result.notes["query_gen.late_ms_p99"] = Percentile(qstats.late_ms, 0.99);
    result.notes["query_gen.late_ms_max"] = Percentile(qstats.late_ms, 1.0);
  }

  if (!traced) {
    Retire(std::move(tree));
    return result;
  }
  auto& layer = result.layer;
  layer["n.query"] = result.notes["n.query"];
  if (queries) {
    layer["tsdb.query_us_p50"] = Percentile(qstats.service_ns, 0.50) / 1e3;
    layer["tsdb.query_us_p99"] = Percentile(qstats.service_ns, 0.99) / 1e3;
    layer["tsdb.segments_considered"] = static_cast<double>(qstats.considered);
    layer["tsdb.segments_pruned_ratio"] =
        Ratio(static_cast<double>(qstats.pruned),
              static_cast<double>(qstats.considered));
    layer["tsdb.rows_returned"] = static_cast<double>(qstats.rows);
    layer["tsdb.bytes_read_per_row"] =
        Ratio(static_cast<double>(qstats.bytes_read),
              static_cast<double>(qstats.rows));
    layer["tsdb.decoded_per_read_byte"] =
        Ratio(static_cast<double>(qstats.decoded),
              static_cast<double>(qstats.bytes_read));
    layer["query_gen.late_ms_p99"] = result.notes["query_gen.late_ms_p99"];
  }
  WriteTrace(opt, *tree->tracer());
  Retire(std::move(tree));
  return result;
}

}  // namespace perfbench
