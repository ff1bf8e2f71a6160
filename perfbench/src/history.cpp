// history: an operator's queries over stored history. A deterministic 1M-row
// dataset (64 nodes x 16 metrics) is sharded by node over 3 leaf ldmsds,
// each with its own store_tsdb; the root reaches the leaves over sock. One
// closed-loop client alternates dashboard queries — `query mode=fanout` over
// the root's UNIX control socket, as ldmsd_controller sends them — with
// full-range scans of one metric through TsdbStore::Query on each leaf store.
//
// A trickle of 640 live nodes keeps flowing through the same tree into the
// root's store meanwhile (monitoring does not pause for analysis), so data
// age and CPU per sample are measured here too: a fan-out holds each leaf's
// producer lock, which stalls that leaf's collect cycle at the root. The
// dataset's 64 nodes are sharded the way the tree shards live nodes 0-63.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "core/mem_manager.hpp"
#include "core/schema.hpp"
#include "tree.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kLeaves = 3;
constexpr std::size_t kTrickleNodes = 640;
constexpr const char* kHistTable = "gpcdr";
constexpr const char* kLeafPolicy = "tsdb";
/// The closed loop sends dashboards for this long, then one scan round.
/// A scan round keeps every core busy for ~100 ms; the dashboards just
/// after it are slower, and with one round per second they stay a small
/// share, below the p95 of the dashboard latencies.
constexpr auto kDashboardSpell = std::chrono::seconds(1);
constexpr std::uint64_t kDashboardTicks = 100;  // 10 s at the 100 ms tick

std::string MetricName(std::uint64_t m) { return "m" + std::to_string(m); }

/// Write one leaf's shard of the dataset and seal it.
Status WriteShard(ldmsxx::TsdbStore& store,
                  const std::vector<std::uint32_t>& shard) {
  ldmsxx::Schema schema(kHistTable);
  for (std::size_t m = 0; m < kHistMetrics; ++m) {
    schema.AddMetric(MetricName(m), ldmsxx::MetricType::kU64);
  }
  ldmsxx::MemManager mem(shard.size() * 4096 + (1u << 16));
  std::vector<ldmsxx::MetricSetPtr> sets;
  std::vector<std::mutex> mus(shard.size());
  std::vector<ldmsxx::Store::BatchItem> items;
  for (std::size_t i = 0; i < shard.size(); ++i) {
    const std::string name = "nid" + std::to_string(shard[i]);
    Status st;
    auto set = ldmsxx::MetricSet::Create(mem, schema, name + "/gpcdr", name,
                                         shard[i], &st);
    if (set == nullptr) return st;
    items.push_back({set.get(), &mus[i]});
    sets.push_back(std::move(set));
  }
  for (std::uint64_t t = 0; t < kHistTicks; ++t) {
    for (std::size_t i = 0; i < sets.size(); ++i) {
      ldmsxx::MetricSet& set = *sets[i];
      set.BeginTransaction();
      for (std::size_t m = 0; m < kHistMetrics; ++m) {
        set.SetU64(m, HistValue(t, shard[i], m));
      }
      set.EndTransaction(t * kHistTick);
    }
    std::size_t stored = 0;
    Status st = store.StoreSetBatch(items.data(), items.size(), &stored);
    if (!st.ok()) return st;
  }
  return store.Flush();
}

struct HistQuery {
  std::uint64_t tick0 = 0;
  std::vector<std::uint64_t> nodes;    ///< sorted
  std::vector<std::uint64_t> metrics;  ///< metric indices
};

HistQuery NextDashboard(ldmsxx::Rng& rng) {
  HistQuery q;
  q.tick0 = rng.NextBelow(kHistTicks - kDashboardTicks + 1);
  while (q.nodes.size() < 4) {
    const std::uint64_t n = rng.NextBelow(kHistNodes);
    if (std::find(q.nodes.begin(), q.nodes.end(), n) == q.nodes.end()) {
      q.nodes.push_back(n);
    }
  }
  std::sort(q.nodes.begin(), q.nodes.end());
  while (q.metrics.size() < 2) {
    const std::uint64_t m = rng.NextBelow(kHistMetrics);
    if (q.metrics.empty() || q.metrics[0] != m) q.metrics.push_back(m);
  }
  return q;
}

std::string FanoutCommand(const HistQuery& q) {
  std::string cmd = std::string("query strgp=") + kLeafPolicy +
                    " mode=fanout table=" + kHistTable + " t0_us=" +
                    std::to_string(q.tick0 * kHistTick / kNsPerUs) + " t1_us=" +
                    std::to_string((q.tick0 + kDashboardTicks - 1) * kHistTick /
                                   kNsPerUs) +
                    " nodes=";
  for (std::size_t i = 0; i < q.nodes.size(); ++i) {
    cmd += (i ? "," : "") + std::to_string(q.nodes[i]);
  }
  cmd += " metrics=" + MetricName(q.metrics[0]) + "," + MetricName(q.metrics[1]);
  return cmd + " limit=1000";
}

/// A fan-out reply: "OK key=value ... row=ts_us:node:v:v ...".
struct FanoutReply {
  std::map<std::string, std::string> fields;
  struct Row {
    std::uint64_t ts_us = 0, node = 0;
    std::vector<double> values;
  };
  std::vector<Row> rows;
};

FanoutReply ParseReply(const std::string& reply) {
  FanoutReply out;
  std::size_t pos = reply.rfind("OK", 0) == 0 ? 2 : 0;
  while (pos < reply.size()) {
    std::size_t end = reply.find(' ', pos);
    if (end == std::string::npos) end = reply.size();
    const std::string token = reply.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = token.substr(0, eq);
    if (key != "row") {
      out.fields[key] = token.substr(eq + 1);
      continue;
    }
    FanoutReply::Row row;
    const char* p = token.c_str() + eq + 1;
    char* next = nullptr;
    row.ts_us = std::strtoull(p, &next, 10);
    row.node = std::strtoull(next + 1, &next, 10);
    while (*next == ':') row.values.push_back(std::strtod(next + 1, &next));
    out.rows.push_back(std::move(row));
  }
  return out;
}

std::uint64_t Field(const FanoutReply& r, const std::string& key) {
  auto it = r.fields.find(key);
  return it == r.fields.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

/// Mismatches between a fan-out page, the dataset reference, and the same
/// predicate run on every leaf store and merged in (ts, node) order.
std::uint64_t CheckDashboard(const HistQuery& q, const FanoutReply& reply,
                             const std::vector<std::shared_ptr<ldmsxx::TsdbStore>>& leaves) {
  std::uint64_t errors = 0;
  if (Field(reply, "leaves_ok") != leaves.size() ||
      Field(reply, "leaves_failed") != 0 || Field(reply, "truncated") != 0) {
    ++errors;
  }
  // Reference: every (tick, node) in the window, ordered by (ts, node).
  std::vector<FanoutReply::Row> want;
  for (std::uint64_t t = q.tick0; t < q.tick0 + kDashboardTicks; ++t) {
    for (const std::uint64_t n : q.nodes) {
      FanoutReply::Row row;
      row.ts_us = t * kHistTick / kNsPerUs;
      row.node = n;
      for (const std::uint64_t m : q.metrics) {
        row.values.push_back(static_cast<double>(HistValue(t, n, m)));
      }
      want.push_back(std::move(row));
    }
  }
  // Leaf-local answers, merged the way the root merges them.
  ldmsxx::TsdbQuery local;
  local.table = kHistTable;
  local.t0 = q.tick0 * kHistTick;
  local.t1 = (q.tick0 + kDashboardTicks - 1) * kHistTick;
  local.nodes = q.nodes;
  local.metrics = {MetricName(q.metrics[0]), MetricName(q.metrics[1])};
  std::vector<ldmsxx::TsdbQueryRow> merged;
  for (const auto& leaf : leaves) {
    ldmsxx::TsdbQueryResult res;
    if (!leaf->Query(local, &res).ok()) ++errors;
    merged.insert(merged.end(), res.rows.begin(), res.rows.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const ldmsxx::TsdbQueryRow& a, const ldmsxx::TsdbQueryRow& b) {
                     return a.ts != b.ts ? a.ts < b.ts : a.node < b.node;
                   });
  if (reply.rows.size() != want.size() || merged.size() != want.size()) {
    return errors + 1;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& got = reply.rows[i];
    const auto& leaf = merged[i];
    if (got.ts_us != want[i].ts_us || got.node != want[i].node ||
        got.values != want[i].values || leaf.ts / kNsPerUs != got.ts_us ||
        leaf.node != got.node || leaf.values != got.values) {
      ++errors;
    }
  }
  return errors;
}

}  // namespace

RunResult RunHistory(const Options& opt, bool traced, double seconds,
                     int setups) {
  RunResult result;
  const std::size_t scan_threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::shared_ptr<ldmsxx::TsdbStore>> stores;
  std::vector<std::size_t> shard_nodes;  // dataset nodes on each leaf

  TreeConfig cfg;
  cfg.seed = opt.seed;
  cfg.nodes = kTrickleNodes;
  cfg.leaves = kLeaves;
  cfg.traced = traced;
  cfg.sample_capacity = SampleCapacity(seconds);
  cfg.leaf_setup = [&](std::size_t l, ldmsxx::Ldmsd& leaf) -> Status {
    ldmsxx::StorePolicy policy(stores[l]);
    policy.name = kLeafPolicy;
    policy.schema_filter = kHistTable;  // live sets are stored at the root
    return leaf.AddStorePolicy(std::move(policy));
  };
  // The dataset's nodes go to the leaf that collects the live node of the
  // same id.
  const auto shards = SplitNodes(opt.seed, kTrickleNodes, kLeaves);

  // --- set-up, repeated; the last tree is the one measured ----------------
  // setup_s = dataset and sampler build + daemon start until every trickle
  // set is stored once at the root; the wait that aligns the start to the
  // schedule between the two is not counted.
  std::vector<double> setup_s;
  std::unique_ptr<Tree> tree;
  for (int k = 0; k < setups; ++k) {
    Retire(std::move(tree));
    stores.clear();
    shard_nodes.clear();
    cfg.dir = opt.data_dir + "/history" + std::to_string(k);
    fs::remove_all(cfg.dir);  // a store re-attaches whatever it finds
    cfg.control_socket = cfg.dir + "/ctl";
    const auto b0 = std::chrono::steady_clock::now();
    for (std::size_t l = 0; l < kLeaves; ++l) {
      ldmsxx::TsdbOptions o;
      o.root_path = cfg.dir + "/leaf" + std::to_string(l);
      o.segment_rows = 8192;
      o.scan_threads = scan_threads;
      stores.push_back(std::make_shared<ldmsxx::TsdbStore>(o));
      std::vector<std::uint32_t> shard;
      for (const std::uint32_t n : shards[l]) {
        if (n < kHistNodes) shard.push_back(n);
      }
      shard_nodes.push_back(shard.size());
      if (Status st = WriteShard(*stores.back(), shard); !st.ok()) {
        result.Fail("dataset build failed: " + st.ToString());
        return result;
      }
    }
    tree = std::make_unique<Tree>(cfg);
    Status st = tree->Build();
    const double build_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - b0)
                               .count();
    AlignSetup();
    const auto t0 = std::chrono::steady_clock::now();
    if (st.ok()) st = tree->Start();
    if (!st.ok() || !tree->WaitReady(60)) {
      result.Fail("history set-up failed: " + st.ToString());
      return result;
    }
    setup_s.push_back(build_s + std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count());
  }
  result.e2e["setup_s"] = Median(setup_s);
  double dataset_bytes = 0, dataset_rows = 0;
  for (std::size_t l = 0; l < kLeaves; ++l) {
    dataset_bytes += static_cast<double>(
        SegmentBytes(cfg.dir + "/leaf" + std::to_string(l)));
    dataset_rows += static_cast<double>(stores[l]->rows_written());
  }
  result.e2e["store_bytes_per_row"] = Ratio(dataset_bytes, dataset_rows);
  std::this_thread::sleep_for(std::chrono::seconds(1));  // steady state

  // --- measured window: the closed-loop client ------------------------------
  Tracer* tracer = tree->tracer();
  ldmsxx::Rng rng(Mix(opt.seed, 0x4157));
  std::vector<double> query_ms;
  std::uint64_t considered = 0, pruned = 0, bytes_read = 0, decoded = 0,
                fan_rows = 0;
  double scan_rows = 0, scan_ns = 0;
  std::uint64_t qid = 0;
  const TreeSnapshot a = StartWindow(*tree);
  const TimeNs w1 = a.wall + static_cast<DurationNs>(seconds * 1e9);
  while (WallNs() < w1) {
    const auto spell_end = std::chrono::steady_clock::now() + kDashboardSpell;
    while (std::chrono::steady_clock::now() < spell_end && WallNs() < w1) {
      const HistQuery q = NextDashboard(rng);
      const std::string cmd = FanoutCommand(q);
      std::string reply;
      ++qid;
      std::uint32_t span = 0;
      if (tracer != nullptr) {
        span = tracer->Begin(SpanKind::kQuery, kTierRoot, qid, 0);
        tracer->current_query_trace.store(qid);
        tracer->current_query.store(span);
      }
      const auto t0 = std::chrono::steady_clock::now();
      Status st = ldmsxx::ControlServer::SendCommand(cfg.control_socket, cmd,
                                                     &reply);
      const auto t1 = std::chrono::steady_clock::now();
      const FanoutReply parsed = ParseReply(reply);
      if (tracer != nullptr) {
        tracer->End(span, static_cast<std::uint32_t>(parsed.rows.size()));
      }
      query_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      ++result.attempted;
      considered += Field(parsed, "segments_considered");
      pruned += Field(parsed, "segments_pruned");
      bytes_read += Field(parsed, "bytes_read");
      decoded += Field(parsed, "bytes_decoded");
      fan_rows += parsed.rows.size();
      if (!st.ok() || CheckDashboard(q, parsed, stores) > 0) {
        result.Fail("fan-out query wrong: " + cmd);
      }
    }
    // One full-range scan of one metric on every shard.
    const std::uint64_t metric = rng.NextBelow(kHistMetrics);
    ++qid;
    for (std::size_t l = 0; l < kLeaves; ++l) {
      ldmsxx::TsdbQuery q;
      q.table = kHistTable;
      q.metrics = {MetricName(metric)};
      ldmsxx::TsdbQueryResult res;
      const std::uint32_t span =
          tracer != nullptr ? tracer->Begin(SpanKind::kScan, kTierNone, qid, 0)
                            : 0;
      const auto t0 = std::chrono::steady_clock::now();
      Status st = stores[l]->Query(q, &res);
      const auto t1 = std::chrono::steady_clock::now();
      if (tracer != nullptr) {
        tracer->End(span, static_cast<std::uint32_t>(res.rows.size()), l);
      }
      scan_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
      scan_rows += static_cast<double>(res.rows.size());
      considered += res.segments_considered;
      pruned += res.segments_pruned;
      bytes_read += res.bytes_read;
      decoded += res.bytes_decoded;
      fan_rows += res.rows.size();
      ++result.attempted;
      std::uint64_t bad = st.ok() ? 0 : 1;
      if (res.rows.size() != kHistTicks * shard_nodes[l]) ++bad;
      for (const auto& row : res.rows) {
        if (row.values.size() != 1 || row.ts % kHistTick != 0 ||
            row.values[0] != static_cast<double>(HistValue(
                                 row.ts / kHistTick, row.node, metric))) {
          ++bad;
        }
      }
      if (bad > 0) result.Fail("scan of shard " + std::to_string(l) + " wrong");
    }
  }
  const TreeSnapshot b = StopWindow(*tree);

  FinishCollection(*tree, a, b, &result);
  CollectionMetrics(*tree, a, b, &result);
  result.e2e["query_p50_ms"] = Percentile(query_ms, 0.50);
  // The tail is a per-layer metric: see README.md, End-to-end metrics.
  result.layer["query.p95_ms"] = Percentile(query_ms, 0.95);
  result.notes["query.p95_ms"] = result.layer["query.p95_ms"];
  result.e2e["scan_mrows_per_s"] = Ratio(scan_rows * 1e3, scan_ns);
  result.notes["n.query"] = static_cast<double>(query_ms.size());
  result.notes["n.setup"] = static_cast<double>(setup_s.size());
  result.notes["history.scan_rows"] = scan_rows;
  if (!traced) {
    Retire(std::move(tree));
    return result;
  }
  auto& layer = result.layer;
  layer["n.query"] = result.notes["n.query"];
  layer["tsdb.segments_considered"] = static_cast<double>(considered);
  layer["tsdb.segments_pruned_ratio"] =
      Ratio(static_cast<double>(pruned), static_cast<double>(considered));
  layer["tsdb.rows_returned"] = static_cast<double>(fan_rows);
  layer["tsdb.bytes_read_per_row"] =
      Ratio(static_cast<double>(bytes_read), static_cast<double>(fan_rows));
  layer["tsdb.decoded_per_read_byte"] =
      Ratio(static_cast<double>(decoded), static_cast<double>(bytes_read));
  WriteTrace(opt, *tracer);
  Retire(std::move(tree));
  return result;
}

}  // namespace perfbench
