#include "daemon/config.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

#include "daemon/decomp/decomp.hpp"
#include "daemon/topology.hpp"
#include "store/tsdb/tsdb_store.hpp"
#include "util/strings.hpp"

namespace ldmsxx {
namespace {

PluginParams ToParams(
    const std::vector<std::pair<std::string, std::string>>& kvs,
    std::size_t skip) {
  PluginParams params;
  for (std::size_t i = skip; i < kvs.size(); ++i) {
    params[kvs[i].first] = kvs[i].second;
  }
  return params;
}

std::optional<DurationNs> IntervalUsParam(const PluginParams& args,
                                          const std::string& key) {
  auto it = args.find(key);
  if (it == args.end()) return std::nullopt;
  auto us = ParseU64(it->second);
  if (!us) return std::nullopt;
  return *us * kNsPerUs;
}

// Reply formatting for the `query` verb: numbers go straight into the reply
// with std::to_chars, no per-token temporaries. A dashboard page runs to
// hundreds of rows, so this is the verb's hot path.

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Same bytes as std::to_string(double) ("%f"): fixed, six decimals, and
/// "nan"/"-nan"/"inf"/"-inf" for non-finite values.
void AppendDouble(std::string* out, double v) {
  char buf[512];  // DBL_MAX in fixed notation is 316 characters
  out->append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::fixed, 6)
                       .ptr);
}

/// " <key><value>", e.g. AppendField(out, "rows=", 3) -> " rows=3".
void AppendField(std::string* out, std::string_view key, std::uint64_t v) {
  out->push_back(' ');
  out->append(key);
  AppendU64(out, v);
}

/// A `query` page, rows and fanout modes alike:
///   columns=<c0>,<c1>... rows=<n> [total_rows= truncated= leaves_ok=
///   leaves_failed= (fanout only)] segments_considered= segments_pruned=
///   segments_read= bytes_read= bytes_decoded= row=<ts_us>:<node>:<v0>...
/// with the first @p emit rows printed. Replaces @p out.
void FormatQueryPage(std::string* out, const TsdbQueryResult& page,
                     std::size_t emit, const Ldmsd::FanoutResult* fanout) {
  out->clear();
  // Room for the rows at typical widths: one or two allocations per page.
  out->reserve(emit * (32 + 16 * page.columns.size()));
  out->append("columns=");
  for (std::size_t i = 0; i < page.columns.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(page.columns[i]);
  }
  AppendField(out, "rows=", page.rows.size());
  if (fanout != nullptr) {
    AppendField(out, "total_rows=", fanout->merged.total_rows);
    AppendField(out, "truncated=", fanout->merged.truncated);
    AppendField(out, "leaves_ok=", fanout->leaves_ok);
    AppendField(out, "leaves_failed=", fanout->leaves_failed);
  }
  AppendField(out, "segments_considered=", page.segments_considered);
  AppendField(out, "segments_pruned=", page.segments_pruned);
  AppendField(out, "segments_read=", page.segments_read);
  AppendField(out, "bytes_read=", page.bytes_read);
  AppendField(out, "bytes_decoded=", page.bytes_decoded);
  for (std::size_t i = 0; i < emit; ++i) {
    const TsdbQueryRow& row = page.rows[i];
    AppendField(out, "row=", row.ts / kNsPerUs);
    out->push_back(':');
    AppendU64(out, row.node);
    for (const double v : row.values) {
      out->push_back(':');
      AppendDouble(out, v);
    }
  }
}

}  // namespace

bool IsMutatingControlVerb(std::string_view verb) {
  // Query verbs are the explicit allowlist; everything else — including
  // verbs added later and typos — requires auth (fail closed).
  return !(verb == "counters" || verb == "strgp_status" ||
           verb == "prdcr_status" || verb == "tree_status" ||
           verb == "registry_status" || verb == "auth_status" ||
           verb == "query");
}

ConfigProcessor::ConfigProcessor(Ldmsd& daemon, PluginRegistry* registry)
    : daemon_(daemon),
      registry_(registry != nullptr ? registry : &PluginRegistry::Instance()) {}

Status ConfigProcessor::Execute(std::string_view line) {
  return Execute(line, nullptr);
}

Status ConfigProcessor::Execute(std::string_view line, std::string* output) {
  if (output != nullptr) output->clear();
  line = Trim(line);
  if (line.empty() || line.front() == '#') return Status::Ok();
  auto kvs = ParseKeyValues(line);
  if (kvs.empty()) return Status::Ok();
  const std::string& verb = kvs[0].first;
  PluginParams args = ToParams(kvs, 1);

  if (verb == "load") return CmdLoad(args);
  if (verb == "config") return CmdConfig(args);
  if (verb == "start") return CmdStart(args);
  if (verb == "stop") return CmdStop(args);
  if (verb == "interval") return CmdInterval(args);
  if (verb == "prdcr_add") return CmdPrdcrAdd(args);
  if (verb == "prdcr_del") return CmdPrdcrDel(args);
  if (verb == "strgp_add") return CmdStrgpAdd(args);
  if (verb == "registry_export") return CmdRegistryExport(args);
  if (verb == "registry_import") return CmdRegistryImport(args);
  if (verb == "registry_status") {
    std::string local;
    return CmdRegistryStatus(output != nullptr ? output : &local);
  }
  if (verb == "strgp_status") {
    std::string local;
    return CmdStrgpStatus(args, output != nullptr ? output : &local);
  }
  if (verb == "prdcr_status") {
    std::string local;
    return CmdPrdcrStatus(args, output != nullptr ? output : &local);
  }
  if (verb == "counters") {
    std::string local;
    return CmdCounters(output != nullptr ? output : &local);
  }
  if (verb == "tree_status") {
    std::string local;
    return CmdTreeStatus(args, output != nullptr ? output : &local);
  }
  if (verb == "query") {
    std::string local;
    return CmdQuery(args, output != nullptr ? output : &local);
  }
  return {ErrorCode::kInvalidArgument, "unknown command: " + verb};
}

Status ConfigProcessor::ExecuteScript(std::string_view script) {
  std::size_t line_no = 0;
  for (std::string_view line : Split(script, '\n')) {
    ++line_no;
    Status st = Execute(line);
    if (!st.ok()) {
      return {st.code(),
              "line " + std::to_string(line_no) + ": " + st.message()};
    }
  }
  return Status::Ok();
}

Status ConfigProcessor::CmdLoad(const PluginParams& args) {
  auto it = args.find("name");
  if (it == args.end()) {
    return {ErrorCode::kInvalidArgument, "load requires name="};
  }
  if (!registry_->HasSampler(it->second)) {
    return {ErrorCode::kNotFound, "unknown sampler plugin: " + it->second};
  }
  pending_[it->second];  // create empty pending config
  return Status::Ok();
}

Status ConfigProcessor::CmdConfig(const PluginParams& args) {
  auto it = args.find("name");
  if (it == args.end()) {
    return {ErrorCode::kInvalidArgument, "config requires name="};
  }
  auto pending = pending_.find(it->second);
  if (pending == pending_.end()) {
    return {ErrorCode::kNotFound, "plugin not loaded: " + it->second};
  }
  for (const auto& [key, value] : args) {
    if (key != "name") pending->second[key] = value;
  }
  return Status::Ok();
}

Status ConfigProcessor::CmdStart(const PluginParams& args) {
  auto it = args.find("name");
  if (it == args.end()) {
    return {ErrorCode::kInvalidArgument, "start requires name="};
  }
  auto pending = pending_.find(it->second);
  if (pending == pending_.end()) {
    return {ErrorCode::kNotFound, "plugin not loaded: " + it->second};
  }
  SamplerConfig config;
  config.params = pending->second;
  if (auto interval = IntervalUsParam(args, "interval")) {
    config.interval = *interval;
  } else {
    return {ErrorCode::kInvalidArgument, "start requires interval=<usec>"};
  }
  if (auto offset = IntervalUsParam(args, "offset")) config.offset = *offset;
  if (auto sync = args.find("sync"); sync != args.end()) {
    config.synchronous = sync->second == "1";
  }
  SamplerPluginPtr plugin = registry_->MakeSampler(it->second, config.params);
  if (plugin == nullptr) {
    return {ErrorCode::kNotFound, "unknown sampler plugin: " + it->second};
  }
  Status st = daemon_.AddSampler(std::move(plugin), config);
  if (st.ok()) pending_.erase(pending);
  return st;
}

Status ConfigProcessor::CmdStop(const PluginParams& args) {
  auto it = args.find("name");
  if (it == args.end()) {
    return {ErrorCode::kInvalidArgument, "stop requires name="};
  }
  return daemon_.RemoveSampler(it->second);
}

Status ConfigProcessor::CmdInterval(const PluginParams& args) {
  auto it = args.find("name");
  auto interval = IntervalUsParam(args, "interval");
  if (it == args.end() || !interval) {
    return {ErrorCode::kInvalidArgument,
            "interval requires name= and interval=<usec>"};
  }
  return daemon_.SetSamplingInterval(it->second, *interval);
}

Status ConfigProcessor::CmdPrdcrAdd(const PluginParams& args) {
  ProducerConfig config;
  if (auto it = args.find("name"); it != args.end()) {
    config.name = it->second;
  } else {
    return {ErrorCode::kInvalidArgument, "prdcr_add requires name="};
  }
  if (auto it = args.find("xprt"); it != args.end())
    config.transport = it->second;
  if (auto it = args.find("host"); it != args.end())
    config.address = it->second;
  if (auto interval = IntervalUsParam(args, "interval")) {
    config.interval = *interval;
  }
  if (auto offset = IntervalUsParam(args, "offset")) config.offset = *offset;
  if (auto it = args.find("sync"); it != args.end())
    config.synchronous = it->second == "1";
  if (auto timeout = IntervalUsParam(args, "timeout")) {
    config.request_timeout = *timeout;
  }
  if (auto min_backoff = IntervalUsParam(args, "reconnect_min")) {
    config.reconnect_min_backoff = *min_backoff;
  }
  if (auto max_backoff = IntervalUsParam(args, "reconnect_max")) {
    config.reconnect_max_backoff = *max_backoff;
  }
  if (auto it = args.find("sets"); it != args.end()) {
    for (auto inst : Split(it->second, ',')) {
      if (!inst.empty()) config.set_instances.emplace_back(inst);
    }
  }
  if (auto rediscover = IntervalUsParam(args, "rediscover")) {
    config.rediscover_interval = *rediscover;
  }
  if (auto it = args.find("delta"); it != args.end())
    config.delta_updates = it->second == "1";
  if (auto it = args.find("standby"); it != args.end())
    config.standby = it->second == "1";
  if (auto it = args.find("standby_for"); it != args.end())
    config.standby_for = it->second;
  return daemon_.AddProducer(config);
}

Status ConfigProcessor::CmdPrdcrDel(const PluginParams& args) {
  auto it = args.find("name");
  if (it == args.end()) {
    return {ErrorCode::kInvalidArgument, "prdcr_del requires name="};
  }
  return daemon_.RemoveProducer(it->second);
}

Status ConfigProcessor::CmdStrgpAdd(const PluginParams& args) {
  auto plugin_it = args.find("plugin");
  if (plugin_it == args.end()) {
    return {ErrorCode::kInvalidArgument, "strgp_add requires plugin="};
  }
  auto store = registry_->MakeStore(plugin_it->second, args);
  if (store == nullptr) {
    return {ErrorCode::kNotFound,
            "unknown store plugin: " + plugin_it->second};
  }
  StorePolicy policy;
  policy.store = std::move(store);
  // Provenance for restart-resume: the cluster registry records the plugin
  // name + args so a restarted daemon can re-make this store.
  policy.plugin = plugin_it->second;
  policy.plugin_params = args;
  if (auto it = args.find("name"); it != args.end()) policy.name = it->second;
  if (auto it = args.find("schema"); it != args.end())
    policy.schema_filter = it->second;
  if (auto it = args.find("producer"); it != args.end())
    policy.producer_filter = it->second;
  if (auto it = args.find("queue"); it != args.end()) {
    auto n = ParseU64(it->second);
    if (!n) return {ErrorCode::kInvalidArgument, "bad queue=" + it->second};
    policy.queue_capacity = static_cast<std::size_t>(*n);
  }
  if (auto it = args.find("shed"); it != args.end()) {
    if (!ParseShedPolicy(it->second, &policy.shed_policy)) {
      return {ErrorCode::kInvalidArgument, "bad shed=" + it->second};
    }
  }
  if (auto it = args.find("breaker_k"); it != args.end()) {
    auto n = ParseU64(it->second);
    if (!n) {
      return {ErrorCode::kInvalidArgument, "bad breaker_k=" + it->second};
    }
    policy.breaker_threshold = *n;
  }
  if (auto min_backoff = IntervalUsParam(args, "breaker_min")) {
    policy.breaker_min_backoff = *min_backoff;
  }
  if (auto max_backoff = IntervalUsParam(args, "breaker_max")) {
    policy.breaker_max_backoff = *max_backoff;
  }
  if (auto it = args.find("decomp"); it != args.end()) {
    // Validate the spec here so a typo fails the command, not (silently)
    // the first stored sample. Metric resolution against the schema still
    // happens lazily at first sample — config does not know schemas.
    DecompSpec spec;
    Status st = ParseDecompSpec(it->second, &spec);
    if (!st.ok()) return st;
    if (!policy.store->row_capable()) {
      return {ErrorCode::kUnsupported,
              "decomp= requires a row-capable store plugin (" +
                  policy.plugin + " stores whole sets)"};
    }
    policy.decomp = it->second;
  }
  return daemon_.AddStorePolicy(std::move(policy));
}

Status ConfigProcessor::CmdStrgpStatus(const PluginParams& args,
                                       std::string* output) {
  if (auto it = args.find("name"); it != args.end()) {
    const StorePolicyStatus s = daemon_.store_policy_status(it->second);
    if (!s.known) {
      return {ErrorCode::kNotFound, "no such store policy: " + it->second};
    }
    *output = "name=" + s.name +
              " state=" + BreakerStateName(s.breaker) +
              " queue=" + std::to_string(s.queue_depth) +
              " high_water=" + std::to_string(s.queue_high_water) +
              " stores=" + std::to_string(s.stores) +
              " failures=" + std::to_string(s.store_failures) +
              " shed=" + std::to_string(s.shed_samples) +
              " trips=" + std::to_string(s.breaker_trips) +
              " recoveries=" + std::to_string(s.breaker_recoveries) +
              " gap=" + std::to_string(s.quarantine_gap) +
              " backoff_us=" + std::to_string(s.current_backoff / kNsPerUs) +
              " evictions=" + std::to_string(s.store_evictions) +
              " decomp_failures=" + std::to_string(s.decompose_failures);
    return Status::Ok();
  }
  for (const auto& name : daemon_.store_policy_names()) {
    if (!output->empty()) output->push_back(' ');
    *output += name;
  }
  return Status::Ok();
}

Status ConfigProcessor::CmdPrdcrStatus(const PluginParams& args,
                                       std::string* output) {
  if (auto it = args.find("name"); it != args.end()) {
    const Ldmsd::ProducerStatus s = daemon_.producer_status(it->second);
    if (!s.known) {
      return {ErrorCode::kNotFound, "no such producer: " + it->second};
    }
    *output = "name=" + it->second +
              " connected=" + std::to_string(s.connected ? 1 : 0) +
              " active=" + std::to_string(s.active ? 1 : 0) +
              " sets=" + std::to_string(s.sets_ready) +
              " failures=" + std::to_string(s.consecutive_failures) +
              " reconnects=" + std::to_string(s.reconnects) +
              " updates_batched=" + std::to_string(s.updates_batched) +
              " updates_unchanged=" + std::to_string(s.updates_unchanged) +
              " updates_delta=" + std::to_string(s.updates_delta) +
              " delta_bytes_saved=" + std::to_string(s.delta_bytes_saved) +
              " update_bytes_on_wire=" +
              std::to_string(s.update_bytes_on_wire) +
              " backoff_us=" + std::to_string(s.current_backoff / kNsPerUs);
    return Status::Ok();
  }
  for (const auto& name : daemon_.producer_names()) {
    if (!output->empty()) output->push_back(' ');
    *output += name;
  }
  return Status::Ok();
}

Status ConfigProcessor::CmdCounters(std::string* output) {
  const auto& c = daemon_.counters();
  auto get = [](const std::atomic<std::uint64_t>& v) {
    return std::to_string(v.load(std::memory_order_relaxed));
  };
  *output = "samples=" + get(c.samples) +
            " updates_ok=" + get(c.updates_ok) +
            " updates_no_new_data=" + get(c.updates_no_new_data) +
            " updates_failed=" + get(c.updates_failed) +
            " lookups=" + get(c.lookups) +
            " stores=" + get(c.storage.stores) +
            " store_failures=" + get(c.storage.store_failures) +
            " shed_samples=" + get(c.storage.shed_samples) +
            " breaker_trips=" + get(c.storage.breaker_trips) +
            " breaker_recoveries=" + get(c.storage.breaker_recoveries) +
            " connects_ok=" + get(c.connects_ok) +
            " connects_failed=" + get(c.connects_failed) +
            " reconnects=" + get(c.reconnects) +
            " backoff_deferrals=" + get(c.backoff_deferrals) +
            " announce_retries=" + get(c.announce_retries) +
            " updates_batched=" + get(c.updates_batched) +
            " updates_unchanged=" + get(c.updates_unchanged) +
            " updates_delta=" + get(c.updates_delta) +
            " delta_bytes_saved=" + get(c.delta_bytes_saved) +
            " update_bytes_on_wire=" + get(c.update_bytes_on_wire);
  // Snapshot-contention counters aggregated over the whole registry (local
  // sets and mirrors alike): how often a reader's seqlock snapshot had to
  // retry against a concurrent writer, and how often it gave up starved.
  std::uint64_t retries = 0;
  std::uint64_t starved = 0;
  for (const auto& instance : daemon_.sets().List()) {
    if (MetricSetPtr set = daemon_.sets().Find(instance)) {
      retries += set->snapshot_retries();
      starved += set->snapshot_starved();
    }
  }
  *output += " snapshot_retries=" + std::to_string(retries) +
             " snapshot_starved=" + std::to_string(starved);
  return Status::Ok();
}

Status ConfigProcessor::CmdTreeStatus(const PluginParams& args,
                                      std::string* output) {
  TreeManager* tree = daemon_.tree();
  if (tree == nullptr) {
    return {ErrorCode::kUnsupported,
            "no aggregation tree attached to this daemon"};
  }
  if (auto it = args.find("leaf"); it != args.end()) {
    auto leaf = ParseU64(it->second);
    const std::size_t slots = tree->leaf_count() + (tree->has_spare() ? 1 : 0);
    if (!leaf || *leaf >= slots) {
      return {ErrorCode::kInvalidArgument, "bad leaf=" + it->second};
    }
    *output = tree->LeafStatusString(static_cast<std::size_t>(*leaf));
    return Status::Ok();
  }
  *output = tree->StatusString();
  return Status::Ok();
}

Status ConfigProcessor::CmdRegistryStatus(std::string* output) {
  ClusterRegistry* registry = daemon_.registry();
  if (registry == nullptr) {
    return {ErrorCode::kUnsupported, "no cluster registry configured"};
  }
  *output = registry->StatusString();
  return Status::Ok();
}

Status ConfigProcessor::CmdRegistryExport(const PluginParams& args) {
  ClusterRegistry* registry = daemon_.registry();
  if (registry == nullptr) {
    return {ErrorCode::kUnsupported, "no cluster registry configured"};
  }
  auto it = args.find("path");
  if (it == args.end() || it->second.empty()) {
    return {ErrorCode::kInvalidArgument, "registry_export requires path="};
  }
  return registry->ExportTo(it->second);
}

Status ConfigProcessor::CmdQuery(const PluginParams& args,
                                 std::string* output) {
  auto strgp = args.find("strgp");
  if (strgp == args.end()) {
    return {ErrorCode::kInvalidArgument, "query requires strgp="};
  }
  std::string mode = "rows";
  if (auto it = args.find("mode"); it != args.end()) mode = it->second;
  TsdbStore* tsdb = nullptr;
  std::shared_ptr<Store> store;
  if (mode != "fanout") {
    // All other modes run against this daemon's own store; fanout is the
    // aggregator shape, where the store lives on the tree leaves.
    store = daemon_.store_for_policy(strgp->second);
    if (store == nullptr) {
      return {ErrorCode::kNotFound, "no such store policy: " + strgp->second};
    }
    tsdb = dynamic_cast<TsdbStore*>(store.get());
    if (tsdb == nullptr) {
      return {ErrorCode::kUnsupported,
              "strgp " + strgp->second + " is not backed by store_tsdb"};
    }
  }
  if (mode == "tables") {
    for (const auto& table : tsdb->Tables()) {
      if (!output->empty()) output->push_back(' ');
      *output += table;
    }
    return Status::Ok();
  }

  QueryRequest req;
  req.strgp = strgp->second;
  req.limit = 64;
  if (auto it = args.find("table"); it != args.end()) {
    req.table = it->second;
  } else {
    return {ErrorCode::kInvalidArgument, "query requires table="};
  }
  if (auto t0 = IntervalUsParam(args, "t0_us")) req.t0 = *t0;
  if (auto t1 = IntervalUsParam(args, "t1_us")) req.t1 = *t1;
  if (auto it = args.find("nodes"); it != args.end()) {
    for (auto node_sv : Split(it->second, ',')) {
      auto node = ParseU64(node_sv);
      if (!node) {
        return {ErrorCode::kInvalidArgument,
                "bad nodes=" + it->second};
      }
      req.nodes.push_back(*node);
    }
  }
  if (auto it = args.find("metrics"); it != args.end()) {
    for (auto metric : Split(it->second, ',')) {
      if (!metric.empty()) req.metrics.emplace_back(metric);
    }
  }
  if (auto it = args.find("limit"); it != args.end()) {
    auto n = ParseU64(it->second);
    if (!n) return {ErrorCode::kInvalidArgument, "bad limit=" + it->second};
    req.limit = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(*n, std::numeric_limits<std::uint32_t>::max()));
  }

  if (mode == "rollup") {
    std::vector<TsdbRollupRow> rollups;
    Status st = tsdb->QueryRollup(req, &rollups);
    if (!st.ok()) return st;
    const std::size_t emit = std::min<std::size_t>(req.limit, rollups.size());
    output->clear();
    output->reserve(16 + emit * 128);
    output->append("buckets=");
    AppendU64(output, rollups.size());
    for (std::size_t i = 0; i < emit; ++i) {
      const TsdbRollupRow& r = rollups[i];
      AppendField(output, "rollup=", r.bucket / kNsPerUs);
      output->push_back(':');
      AppendU64(output, r.node);
      output->push_back(':');
      output->append(r.metric);
      for (const double v : {r.min, r.max, r.avg}) {
        output->push_back(':');
        AppendDouble(output, v);
      }
      output->push_back(':');
      AppendU64(output, r.count);
    }
    return Status::Ok();
  }
  if (mode == "fanout") {
    // Tree-sharded fan-out: forward the predicate to every producer peer's
    // local store and merge the bounded result pages.
    Ldmsd::FanoutResult fanout;
    Status st = daemon_.FanoutQuery(req, &fanout);
    if (!st.ok()) return st;
    FormatQueryPage(output, fanout.merged, fanout.merged.rows.size(), &fanout);
    return Status::Ok();
  }
  if (mode != "rows") {
    return {ErrorCode::kInvalidArgument, "bad mode=" + mode};
  }
  TsdbQueryResult result;
  Status st = tsdb->Query(req, &result);
  if (!st.ok()) return st;
  FormatQueryPage(output, result,
                  std::min<std::size_t>(req.limit, result.rows.size()),
                  nullptr);
  return Status::Ok();
}

Status ConfigProcessor::CmdRegistryImport(const PluginParams& args) {
  ClusterRegistry* registry = daemon_.registry();
  if (registry == nullptr) {
    return {ErrorCode::kUnsupported, "no cluster registry configured"};
  }
  auto it = args.find("path");
  if (it == args.end() || it->second.empty()) {
    return {ErrorCode::kInvalidArgument, "registry_import requires path="};
  }
  return registry->ImportFrom(it->second);
}

}  // namespace ldmsxx
