// Metric catalogue and span summaries. The catalogue is the single list of
// metric names and units; `perfbench --catalog` prints it for BENCHMARK.json.
#include <cstdio>
#include <map>

#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"data_age_p50_ms", "ms"},
      {"data_age_p99_ms", "ms"},
      {"cpu_us_per_sample", "us"},
      {"store_bytes_per_row", "B"},
      {"query_p50_ms", "ms"},
      {"scan_mrows_per_s", "Mrows/s", true},
      {"setup_s", "s"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> kMetrics = [] {
    std::vector<MetricDef> m = {
        {"sampler.sample_us_p50", "us"},
        {"sampler.sample_us_p99", "us"},
        {"sampler.cpu_us_per_sample", "us"},
        {"sampler.samples", "count"},
        {"daemon.skipped_firings", "count"},
        {"daemon.leaf.cycles", "count"},
        {"daemon.leaf.collect_us_per_cycle", "us"},
        {"daemon.leaf.collect_self_us_per_cycle", "us"},
        {"daemon.root.cycles", "count"},
        {"daemon.root.collect_us_per_cycle", "us"},
        {"daemon.root.collect_self_us_per_cycle", "us"},
        {"daemon.fanout_self_us_p50", "us"},
        {"transport.leaf.update_batch_us_p50", "us"},
        {"transport.leaf.update_batch_us_p99", "us"},
        {"transport.leaf.wire_bytes_per_sample", "B"},
        {"transport.leaf.delta_share", "ratio"},
        {"transport.leaf.useful_pull_ratio", "ratio"},
        {"transport.leaf.pulls", "count"},
        {"transport.leaf.useful", "count"},
        {"transport.root.update_batch_us_p50", "us"},
        {"transport.root.update_batch_us_p99", "us"},
        {"transport.root.wire_bytes_per_sample", "B"},
        {"transport.root.delta_share", "ratio"},
        {"transport.root.useful_pull_ratio", "ratio"},
        {"transport.root.pulls", "count"},
        {"transport.root.useful", "count"},
        {"transport.remote_query_us_p50", "us"},
        {"transport.remote_query_us_p99", "us"},
        {"transport.query_resp_bytes_per_row", "B"},
        {"store_runtime.wait_us_p50", "us"},
        {"store_runtime.wait_us_p99", "us"},
        {"store_runtime.rows_per_store_call", "count"},
        {"store_runtime.store_calls", "count"},
        {"store_runtime.queue_high_water", "count"},
        {"store_runtime.shed_samples", "count"},
        {"tsdb.append_us_per_row", "us"},
        {"tsdb.seal_us_p50", "us"},
        {"tsdb.seal_us_max", "us"},
        {"tsdb.seals", "count"},
        {"tsdb.query_us_p50", "us"},
        {"tsdb.query_us_p99", "us"},
        {"tsdb.segments_considered", "count"},
        {"tsdb.segments_pruned_ratio", "ratio"},
        {"tsdb.rows_returned", "count"},
        {"tsdb.bytes_read_per_row", "B"},
        {"tsdb.decoded_per_read_byte", "ratio"},
        {"tsdb.scan_us_shard0", "us"},
        {"tsdb.scan_us_shard1", "us"},
        {"tsdb.scan_us_shard2", "us"},
        {"query.p95_ms", "ms"},
        {"query_gen.late_ms_p99", "ms"},
        {"proc.cpu_util", "cores"},
        {"failed_ratio", "ratio"},
        {"n.data_age", "count"},
        {"n.query", "count"},
    };
    // Tracing overhead: traced minus untraced, per end-to-end metric.
    for (const MetricDef& e : EndToEndMetrics()) {
      m.push_back({"overhead." + e.name, e.unit});
    }
    return m;
  }();
  return kMetrics;
}

void SummarizeSpans(const std::vector<Span>& spans,
                    std::map<std::string, double>* layer) {
  std::vector<double> sample_us, seal_us, remote_us, handle_us;
  std::vector<double> update_us[3], scan_us[3];
  double sample_cpu_ns = 0, append_ns = 0, append_rows = 0, remote_bytes = 0,
         remote_rows = 0;
  std::map<std::uint32_t, double> child_ns;  // query span id -> remote time
  for (const Span& s : spans) {
    if (s.end < s.start || s.end == 0) continue;  // never closed
    const double ns = static_cast<double>(s.end - s.start);
    switch (s.kind) {
      case SpanKind::kSample:
        sample_us.push_back(ns / 1e3);
        sample_cpu_ns += static_cast<double>(s.aux);
        break;
      case SpanKind::kUpdateBatch:
        update_us[s.tier % 3].push_back(ns / 1e3);
        break;
      case SpanKind::kStoreRows:
        if (s.aux != 0) {
          seal_us.push_back(ns / 1e3);
        } else {
          append_ns += ns;
          append_rows += s.n;
        }
        break;
      case SpanKind::kRemoteQuery:
        remote_us.push_back(ns / 1e3);
        remote_bytes += static_cast<double>(s.aux);
        remote_rows += s.n;
        if (s.parent != 0) child_ns[s.parent] += ns;
        break;
      case SpanKind::kHandleQuery:
        handle_us.push_back(ns / 1e3);
        break;
      case SpanKind::kScan:
        scan_us[s.aux % 3].push_back(ns / 1e3);
        break;
      case SpanKind::kQuery:
        break;
    }
  }
  // Fan-out self time: the verb's round trip minus its leaf requests, i.e.
  // the control socket, the merge, the sort and the reply formatting.
  std::vector<double> fanout_self_us;
  for (const Span& s : spans) {
    auto it = child_ns.find(s.id);
    if (s.kind != SpanKind::kQuery || it == child_ns.end() || s.end == 0) {
      continue;
    }
    fanout_self_us.push_back(
        (static_cast<double>(s.end - s.start) - it->second) / 1e3);
  }
  auto& l = *layer;
  l["sampler.sample_us_p50"] = Percentile(sample_us, 0.50);
  l["sampler.sample_us_p99"] = Percentile(sample_us, 0.99);
  l["sampler.cpu_us_per_sample"] =
      Ratio(sample_cpu_ns / 1e3, static_cast<double>(sample_us.size()));
  l["sampler.samples"] = static_cast<double>(sample_us.size());
  l["transport.leaf.update_batch_us_p50"] = Percentile(update_us[kTierLeaf], 0.50);
  l["transport.leaf.update_batch_us_p99"] = Percentile(update_us[kTierLeaf], 0.99);
  l["transport.root.update_batch_us_p50"] = Percentile(update_us[kTierRoot], 0.50);
  l["transport.root.update_batch_us_p99"] = Percentile(update_us[kTierRoot], 0.99);
  l["tsdb.append_us_per_row"] = Ratio(append_ns / 1e3, append_rows);
  l["tsdb.seal_us_p50"] = Percentile(seal_us, 0.50);
  l["tsdb.seal_us_max"] = Percentile(seal_us, 1.0);
  l["tsdb.seals"] = static_cast<double>(seal_us.size());
  l["transport.remote_query_us_p50"] = Percentile(remote_us, 0.50);
  l["transport.remote_query_us_p99"] = Percentile(remote_us, 0.99);
  l["transport.query_resp_bytes_per_row"] = Ratio(remote_bytes, remote_rows);
  if (!handle_us.empty()) {
    l["tsdb.query_us_p50"] = Percentile(handle_us, 0.50);
    l["tsdb.query_us_p99"] = Percentile(handle_us, 0.99);
  }
  l["daemon.fanout_self_us_p50"] = Percentile(fanout_self_us, 0.50);
  for (int shard = 0; shard < 3; ++shard) {
    l["tsdb.scan_us_shard" + std::to_string(shard)] =
        Percentile(scan_us[shard], 0.50);
  }
}

void WriteTrace(const Options& opt, const Tracer& tracer) {
  if (opt.trace_dir.empty()) return;
  const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".csv";
  if (!tracer.WriteCsv(path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
