#include "tree.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <numeric>
#include <thread>

#include "sampler/samplers.hpp"
#include "transport/sock_transport.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using ldmsxx::Ldmsd;
using ldmsxx::LdmsdOptions;

namespace {

/// One row group: every node metric into table "node", metric_0 renamed to
/// the column the checks key on.
std::string RootDecompSpec() {
  std::string spec = std::string(kRootTable) + "@metric_0:seq";
  for (std::size_t i = 1; i < kNodeMetrics; ++i) {
    spec += ",metric_" + std::to_string(i);
  }
  return spec;
}

std::vector<std::string> Instances(const std::vector<std::uint32_t>& nodes) {
  std::vector<std::string> out;
  out.reserve(nodes.size());
  for (const std::uint32_t n : nodes) out.push_back(InstanceName(n));
  return out;
}

}  // namespace

void AlignSetup() {
  constexpr DurationNs kSetupPhase = 50 * kNsPerMs;
  const TimeNs now = WallNs();
  const DurationNs wait =
      (kSampleInterval + kSetupPhase - now % kSampleInterval) % kSampleInterval;
  std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

std::vector<std::vector<std::uint32_t>> SplitNodes(std::uint64_t seed,
                                                   std::size_t nodes,
                                                   std::size_t leaves) {
  std::vector<std::uint32_t> perm(nodes);
  std::iota(perm.begin(), perm.end(), 0u);
  ldmsxx::Rng rng(Mix(seed, 0x5711));
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBelow(i)]);
  }
  std::vector<std::vector<std::uint32_t>> shards(leaves);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    shards[i % leaves].push_back(perm[i]);
  }
  for (auto& shard : shards) std::sort(shard.begin(), shard.end());
  return shards;
}

Tree::Tree(TreeConfig config) : config_(std::move(config)) {}

Tree::~Tree() { Stop(); }

LdmsdOptions Tree::DaemonOptions(const std::string& name, bool listen,
                                 std::uint8_t tier) {
  LdmsdOptions o;
  o.name = name;
  if (listen) {
    o.listen_transport = "sock";
    o.listen_address = "127.0.0.1:0";
  }
  o.set_memory = config_.nodes * 8192 + (4u << 20);
  o.worker_threads = 1;
  o.connection_threads = 1;
  o.store_threads = 1;
  o.log_level = ldmsxx::LogLevel::kOff;
  if (tracer_ != nullptr && tier != kTierNone) {
    o.transports = registries_[tier].get();
  }
  return o;
}

const TracedTransport* Tree::transport(std::uint8_t tier) const {
  return tier < transports_.size() ? transports_[tier].get() : nullptr;
}

Status Tree::Build() {
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (config_.traced) {
    // Samples dominate: one span per node per interval of the window.
    tracer_ = std::make_unique<Tracer>(config_.nodes,
                                       config_.sample_capacity * config_.nodes);
    transports_.resize(3);
    registries_.resize(3);
    for (std::uint8_t tier : {kTierLeaf, kTierRoot}) {
      transports_[tier] = std::make_shared<TracedTransport>(
          std::make_shared<ldmsxx::SockTransport>(), tier, tracer_.get());
      registries_[tier] = MakeRegistry(transports_[tier]);
    }
  }

  shards_ = SplitNodes(config_.seed, config_.nodes, config_.leaves);

  sampler_ = std::make_unique<Ldmsd>(DaemonOptions("sampler", true, kTierNone));
  for (std::uint32_t n = 0; n < config_.nodes; ++n) {
    ldmsxx::SamplerPluginPtr inner;
    if (KindOf(n) == NodeKind::kSynthetic) {
      inner = std::make_shared<ldmsxx::SyntheticSampler>(nullptr);
    } else {
      inner = std::make_shared<PerfNodeSampler>(config_.seed, n);
    }
    auto node = std::make_shared<NodeSampler>(
        std::move(inner), n, config_.sample_capacity, tracer_.get());
    ldmsxx::SamplerConfig sc;
    sc.interval = kSampleInterval;
    sc.synchronous = true;
    sc.params = {{"producer", "n" + std::to_string(n)},
                 {"instance", InstanceName(n)},
                 {"component_id", std::to_string(n)},
                 {"metrics", std::to_string(kNodeMetrics)}};
    Status st = sampler_->AddSampler(node, sc);
    if (!st.ok()) return st;
    nodes_.push_back(std::move(node));
  }
  return Status::Ok();
}

Status Tree::Start() {
  Status st = sampler_->Start();
  if (!st.ok()) return st;

  for (std::size_t l = 0; l < config_.leaves; ++l) {
    auto leaf = std::make_unique<Ldmsd>(
        DaemonOptions("leaf" + std::to_string(l), true, kTierLeaf));
    if (config_.leaf_setup) {
      st = config_.leaf_setup(l, *leaf);
      if (!st.ok()) return st;
    }
    ldmsxx::ProducerConfig pc;
    pc.name = "sampler";
    pc.transport = "sock";
    pc.address = sampler_->listen_address();
    pc.interval = kSampleInterval;
    pc.offset = kLeafOffset;
    pc.synchronous = true;
    pc.set_instances = Instances(shards_[l]);
    st = leaf->AddProducer(pc);
    if (st.ok()) st = leaf->Start();
    if (!st.ok()) return st;
    leaves_.push_back(std::move(leaf));
  }

  root_ = std::make_unique<Ldmsd>(DaemonOptions("root", false, kTierRoot));
  ldmsxx::TsdbOptions topts;
  topts.root_path = config_.dir + "/root_tsdb";
  // One collection cycle per segment: a query over the last k seconds then
  // reads k sealed segments whatever the phase it runs at, instead of
  // sometimes one segment more, which made its latency bimodal.
  topts.segment_rows = config_.nodes;
  tsdb_ = std::make_shared<ldmsxx::TsdbStore>(topts);
  probe_ = std::make_shared<ProbeStore>(tsdb_, config_.nodes, tracer_.get());
  ldmsxx::StorePolicy policy(probe_);
  policy.name = kRootPolicy;
  policy.decomp = RootDecompSpec();
  // Deployment sizing: one collection cycle of every set fits the queue.
  policy.queue_capacity = std::max<std::size_t>(1024, 2 * config_.nodes);
  st = root_->AddStorePolicy(std::move(policy));
  if (!st.ok()) return st;
  for (std::size_t l = 0; l < config_.leaves; ++l) {
    ldmsxx::ProducerConfig pc;
    pc.name = "leaf" + std::to_string(l);
    pc.transport = "sock";
    pc.address = leaves_[l]->listen_address();
    pc.interval = kSampleInterval;
    pc.offset = kRootOffset;
    pc.synchronous = true;
    pc.set_instances = Instances(shards_[l]);
    st = root_->AddProducer(pc);
    if (!st.ok()) return st;
  }
  st = root_->Start();
  if (!st.ok()) return st;
  if (!config_.control_socket.empty()) {
    control_ = std::make_unique<ldmsxx::ControlServer>(*root_,
                                                       config_.control_socket);
    st = control_->Start();
  }
  return st;
}

bool Tree::WaitReady(double timeout_s) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (probe_->nodes_seen() < config_.nodes) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

void Tree::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (control_ != nullptr) control_->Stop();
  if (root_ != nullptr) root_->Stop();
  for (auto& leaf : leaves_) leaf->Stop();
  if (sampler_ != nullptr) sampler_->Stop();
}

void Retire(std::unique_ptr<Tree> tree) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<Tree>> retired;
  if (tree == nullptr) return;
  tree->Stop();
  std::lock_guard<std::mutex> lock(mu);
  retired.push_back(std::move(tree));
}

DaemonCounters ReadCounters(const Ldmsd& daemon) {
  const Ldmsd::Counters& c = daemon.counters();
  auto get = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  DaemonCounters d;
  d.samples = get(c.samples);
  d.update_ns = get(c.update_ns);
  d.updates_ok = get(c.updates_ok);
  d.updates_delta = get(c.updates_delta);
  d.wire_bytes = get(c.update_bytes_on_wire);
  d.skipped = daemon.skipped_firings();
  d.shed = get(c.storage.shed_samples);
  return d;
}

std::uint64_t SegmentBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) && entry.path().extension() == ".seg") {
      total += entry.file_size(ec);
    }
  }
  return total;
}

namespace {

/// Metric index behind a root table column ("seq" is metric 0).
int MetricIndex(const std::string& column) {
  if (column == "seq") return 0;
  if (column.rfind("metric_", 0) != 0) return -1;
  const int i = std::atoi(column.c_str() + 7);
  return i > 0 && i < static_cast<int>(kNodeMetrics) ? i : -1;
}

/// Compare one stored row against the model; false on any mismatch.
bool RowMatches(const Tree& tree, const ldmsxx::TsdbQueryRow& row,
                const std::vector<int>& metric, std::uint64_t seq) {
  const std::uint32_t node = static_cast<std::uint32_t>(row.node);
  const PerfNodeShape shape(tree.config().seed, node);
  for (std::size_t c = 0; c < metric.size(); ++c) {
    const double want = static_cast<double>(
        NodeValue(tree.config().seed, node, shape,
                  static_cast<std::size_t>(metric[c]), seq));
    if (row.values[c] != want) return false;
  }
  return true;
}

}  // namespace

CollectCheck CheckCollection(const Tree& tree,
                             const std::vector<std::uint64_t>& lo,
                             const std::vector<std::uint64_t>& hi) {
  CollectCheck check;
  const auto& nodes = tree.nodes();
  check.stored.assign(nodes.size(), {});
  TimeNs tmin = ~TimeNs{0}, tmax = 0;
  for (const auto& node : nodes) {
    check.stored[node->node()].assign(node->seq() + 1, 0);
    if (node->seq() == 0) continue;
    tmin = std::min(tmin, node->ts_of(1));
    tmax = std::max(tmax, node->ts_of(node->seq()));
  }
  // Read back one second at a time so the answer stays small.
  for (TimeNs t = tmin; t <= tmax && tmin <= tmax; t += kNsPerSec) {
    ldmsxx::TsdbQuery q;
    q.table = kRootTable;
    q.t0 = t;
    q.t1 = t + kNsPerSec - 1;
    ldmsxx::TsdbQueryResult res;
    if (!tree.tsdb().Query(q, &res).ok()) {
      ++check.wrong;
      continue;
    }
    std::vector<int> metric;
    for (const auto& column : res.columns) metric.push_back(MetricIndex(column));
    if (metric.size() != kNodeMetrics || metric[0] != 0) {
      check.wrong += res.rows.size() + 1;
      continue;
    }
    for (const auto& row : res.rows) {
      ++check.rows;
      const double seq_value = row.values[0];
      if (row.node >= nodes.size() || seq_value < 1) {
        ++check.wrong;
        continue;
      }
      const NodeSampler& node = *nodes[row.node];
      const auto seq = static_cast<std::uint64_t>(seq_value);
      auto& stored = check.stored[row.node];
      if (seq >= stored.size() || node.ts_of(seq) != row.ts ||
          !RowMatches(tree, row, metric, seq)) {
        ++check.wrong;
        continue;
      }
      if (stored[seq]++ > 0) ++check.duplicate;
    }
  }
  // Rows stamped outside every sample's time were not read back above.
  const std::uint64_t written = tree.tsdb().rows_written();
  if (written > check.rows) check.wrong += written - check.rows;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    for (std::uint64_t s = lo[n] + 1; s <= hi[n]; ++s) {
      ++check.expected;
      if (s >= check.stored[n].size() || check.stored[n][s] == 0) {
        ++check.missing;
      }
    }
  }
  return check;
}

std::uint64_t CheckNodeAnswer(const Tree& tree, const ldmsxx::TsdbQuery& q,
                              const ldmsxx::TsdbQueryResult& res,
                              const CollectCheck* stored,
                              std::size_t max_rows) {
  const auto& nodes = tree.nodes();
  std::vector<int> metric;
  for (const auto& column : res.columns) {
    metric.push_back(MetricIndex(column));
    if (metric.back() < 0) return 1;
  }
  if (metric.size() != q.metrics.size()) return 1;
  std::uint64_t errors = 0;
  const std::size_t step =
      res.rows.size() > max_rows ? res.rows.size() / max_rows : 1;
  for (std::size_t r = 0; r < res.rows.size(); r += step) {
    const auto& row = res.rows[r];
    if (row.node >= nodes.size() || row.ts < q.t0 || row.ts > q.t1 ||
        (!q.nodes.empty() &&
         std::find(q.nodes.begin(), q.nodes.end(), row.node) == q.nodes.end())) {
      ++errors;
      continue;
    }
    const std::uint64_t seq = nodes[row.node]->seq_of(row.ts);
    if (seq == 0 || !RowMatches(tree, row, metric, seq)) ++errors;
  }
  if (stored != nullptr) {
    // At rest the answer must hold exactly the stored rows in range.
    std::uint64_t want = 0;
    auto count = [&](std::uint64_t n) {
      const auto [first, end] = nodes[n]->seq_range(q.t0, q.t1);
      for (std::uint64_t s = first; s < end; ++s) {
        if (s < stored->stored[n].size()) want += stored->stored[n][s];
      }
    };
    if (q.nodes.empty()) {
      for (std::uint64_t n = 0; n < nodes.size(); ++n) count(n);
    } else {
      for (const std::uint64_t n : q.nodes) count(n);
    }
    if (want != res.rows.size()) ++errors;
  }
  return errors;
}

}  // namespace perfbench

namespace perfbench {

TreeSnapshot ReadSnapshot(const Tree& tree) {
  TreeSnapshot s;
  s.daemons.push_back(ReadCounters(tree.sampler()));
  s.daemons.push_back(ReadCounters(tree.root()));
  for (const auto& leaf : tree.leaves()) s.daemons.push_back(ReadCounters(*leaf));
  if (tree.transport(kTierLeaf) != nullptr) {
    s.leaf = tree.transport(kTierLeaf)->wire();
    s.root = tree.transport(kTierRoot)->wire();
  }
  for (const auto& node : tree.nodes()) s.seqs.push_back(node->seq());
  for (const auto& name : tree.root().producer_names()) {
    s.root_producers.push_back(tree.root().producer_status(name));
  }
  s.cpu_ns = ProcessCpuNs();
  s.wall = WallNs();
  return s;
}

TreeSnapshot StartWindow(Tree& tree) {
  tree.probe().StartWindow();
  if (tree.tracer() != nullptr) tree.tracer()->set_recording(true);
  return ReadSnapshot(tree);
}

TreeSnapshot StopWindow(Tree& tree) {
  TreeSnapshot s = ReadSnapshot(tree);
  tree.probe().StopWindow();
  if (tree.tracer() != nullptr) tree.tracer()->set_recording(false);
  return s;
}

CollectCheck FinishCollection(Tree& tree, const TreeSnapshot& a,
                              const TreeSnapshot& b, RunResult* result) {
  // Samples taken inside the window are stored at the root by the root's
  // pull offset after their sampling tick, plus the store time.
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(kRootOffset + 500 * kNsPerMs));
  tree.Stop();
  if (Status st = tree.tsdb().Flush(); !st.ok()) {
    result->Fail("root store flush failed: " + st.ToString());
  }
  CollectCheck check = CheckCollection(tree, a.seqs, b.seqs);
  std::uint64_t shed = 0;
  for (std::size_t i = 0; i < a.daemons.size(); ++i) {
    shed += b.daemons[i].shed - a.daemons[i].shed;
  }
  result->attempted += check.expected;
  const std::string tally =
      std::to_string(check.missing) + " missing, " +
      std::to_string(check.wrong) + " wrong, " +
      std::to_string(check.duplicate) + " duplicate, " +
      std::to_string(shed) + " shed of " + std::to_string(check.expected);
  // A row with values no sample had is a wrong output. A sample that never
  // arrived, was shed, or whose slot holds the next sample a second time
  // (the store read the mirror after the next pull) is a lost operation.
  if (check.wrong > 0) {
    result->Fail("collection: " + tally,
                 check.missing + check.wrong + check.duplicate + shed);
  } else if (check.missing + check.duplicate + shed > 0) {
    result->Lost("collection: " + tally,
                 check.missing + check.duplicate + shed);
  }
  // When each cycle's sampling burst ended, after the interval boundary: a
  // burst that runs past the leaves' pull offset loses samples.
  std::map<TimeNs, double> burst_end_ms;
  for (const auto& node : tree.nodes()) {
    for (std::uint64_t s = a.seqs[node->node()] + 1; s <= b.seqs[node->node()];
         ++s) {
      const TimeNs ts = node->ts_of(s);
      double& end = burst_end_ms[ts / kSampleInterval];
      end = std::max(end, static_cast<double>(ts % kSampleInterval) / 1e6);
    }
  }
  std::vector<double> ends;
  for (const auto& [cycle, end] : burst_end_ms) ends.push_back(end);
  result->notes["sampler.burst_end_ms_p50"] = Percentile(ends, 0.50);
  result->notes["sampler.burst_end_ms_max"] = Percentile(ends, 1.0);
  result->notes["collect.samples_expected"] =
      static_cast<double>(check.expected);
  result->notes["collect.rows_read_back"] = static_cast<double>(check.rows);
  return check;
}

void CollectionMetrics(const Tree& tree, const TreeSnapshot& a,
                       const TreeSnapshot& b, RunResult* result) {
  const std::vector<std::uint64_t> ages = tree.probe().ages();
  const double rows = static_cast<double>(tree.probe().window_rows());
  const double cpu_ns = static_cast<double>(b.cpu_ns - a.cpu_ns);
  result->e2e["data_age_p50_ms"] = Percentile(ages, 0.50) / 1e6;
  result->e2e["data_age_p99_ms"] = Percentile(ages, 0.99) / 1e6;
  result->e2e["cpu_us_per_sample"] = Ratio(cpu_ns / 1e3, rows);
  result->notes["n.data_age"] = static_cast<double>(ages.size());
  result->notes["proc.cpu_util"] =
      Ratio(cpu_ns, static_cast<double>(b.wall - a.wall));
  auto delta = [&](std::size_t daemon, std::uint64_t DaemonCounters::*field) {
    return static_cast<double>(b.daemons[daemon].*field -
                               a.daemons[daemon].*field);
  };
  result->notes["sampler.samples"] = delta(0, &DaemonCounters::samples);
  result->notes["root.updates_ok"] = delta(1, &DaemonCounters::updates_ok);
  result->notes["root.updates_delta"] = delta(1, &DaemonCounters::updates_delta);
  result->notes["root.wire_bytes"] = delta(1, &DaemonCounters::wire_bytes);
  double unchanged = 0, saved = 0;
  for (std::size_t i = 0; i < a.root_producers.size(); ++i) {
    unchanged += static_cast<double>(b.root_producers[i].updates_unchanged -
                                     a.root_producers[i].updates_unchanged);
    saved += static_cast<double>(b.root_producers[i].delta_bytes_saved -
                                 a.root_producers[i].delta_bytes_saved);
  }
  result->notes["root.updates_unchanged"] = unchanged;
  result->notes["root.delta_bytes_saved"] = saved;
  if (tree.tracer() == nullptr) return;

  auto& layer = result->layer;
  SummarizeSpans(tree.tracer()->Snapshot(), &layer);
  double skipped = 0, shed = 0, leaf_update_ns = 0;
  for (std::size_t i = 0; i < a.daemons.size(); ++i) {
    skipped += delta(i, &DaemonCounters::skipped);
    shed += delta(i, &DaemonCounters::shed);
    if (i >= 2) leaf_update_ns += delta(i, &DaemonCounters::update_ns);
  }
  layer["daemon.skipped_firings"] = skipped;
  auto tier = [&](const std::string& t, const TierWire& w0, const TierWire& w1,
                  double update_ns) {
    const double bytes = static_cast<double>(w1.bytes - w0.bytes);
    const double useful = static_cast<double>(w1.useful - w0.useful);
    const double pulls = static_cast<double>(w1.pulls - w0.pulls);
    const double cycles = static_cast<double>(w1.batches - w0.batches);
    const double batch_ns = static_cast<double>(w1.batch_ns - w0.batch_ns);
    layer["transport." + t + ".wire_bytes_per_sample"] = Ratio(bytes, useful);
    layer["transport." + t + ".delta_share"] =
        Ratio(static_cast<double>(w1.deltas - w0.deltas), useful);
    layer["transport." + t + ".useful_pull_ratio"] = Ratio(useful, pulls);
    layer["transport." + t + ".pulls"] = pulls;
    layer["transport." + t + ".useful"] = useful;
    layer["daemon." + t + ".cycles"] = cycles;
    layer["daemon." + t + ".collect_us_per_cycle"] =
        Ratio(update_ns / 1e3, cycles);
    // Self time: the collect cycle minus the batched pull inside it —
    // ApplyData/ApplyDelta, bookkeeping and the store-queue submit.
    layer["daemon." + t + ".collect_self_us_per_cycle"] =
        Ratio((update_ns - batch_ns) / 1e3, cycles);
  };
  tier("leaf", a.leaf, b.leaf, leaf_update_ns);
  tier("root", a.root, b.root, delta(1, &DaemonCounters::update_ns));
  const std::vector<std::uint64_t> waits = tree.probe().waits();
  layer["store_runtime.wait_us_p50"] = Percentile(waits, 0.50) / 1e3;
  layer["store_runtime.wait_us_p99"] = Percentile(waits, 0.99) / 1e3;
  layer["store_runtime.rows_per_store_call"] =
      Ratio(rows, static_cast<double>(tree.probe().store_calls()));
  layer["store_runtime.store_calls"] =
      static_cast<double>(tree.probe().store_calls());
  layer["store_runtime.queue_high_water"] = static_cast<double>(
      tree.root().store_policy_status(kRootPolicy).queue_high_water);
  layer["store_runtime.shed_samples"] = shed;
  layer["n.data_age"] = static_cast<double>(ages.size());
  layer["proc.cpu_util"] = result->notes["proc.cpu_util"];
}

}  // namespace perfbench
