#include "probes.hpp"

#include <algorithm>
#include <cstdio>

#include "core/schema.hpp"

namespace perfbench {

using ldmsxx::Endpoint;
using ldmsxx::MetricSet;
using ldmsxx::RowBatch;

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSample: return "sample";
    case SpanKind::kUpdateBatch: return "update_batch";
    case SpanKind::kStoreRows: return "store_rows";
    case SpanKind::kQuery: return "query";
    case SpanKind::kRemoteQuery: return "remote_query";
    case SpanKind::kHandleQuery: return "handle_query";
    case SpanKind::kScan: return "scan";
  }
  return "?";
}

const char* TierName(std::uint8_t tier) {
  return tier == kTierLeaf ? "leaf" : tier == kTierRoot ? "root" : "-";
}

// --- Tracer -----------------------------------------------------------------

std::uint32_t Tracer::Begin(SpanKind kind, std::uint8_t tier,
                            std::uint64_t trace, std::uint32_t parent) {
  if (!recording()) return 0;
  Span span;
  span.kind = kind;
  span.tier = tier;
  span.trace = trace;
  span.parent = parent;
  span.start = WallNs();
  return Add(span);
}

void Tracer::End(std::uint32_t id, std::uint32_t n, std::uint64_t aux) {
  if (id == 0) return;
  const TimeNs now = WallNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[id - 1];
  span.end = now;
  span.n = n;
  span.aux = aux;
}

std::uint32_t Tracer::Add(const Span& span) {
  if (!recording()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  spans_.back().id = static_cast<std::uint32_t>(spans_.size());
  return spans_.back().id;
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,tier,trace,start_ns,end_ns,n,aux\n");
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f, "%u,%u,%s,%s,%llu,%llu,%llu,%u,%llu\n", s.id, s.parent,
                 SpanName(s.kind), TierName(s.tier),
                 static_cast<unsigned long long>(s.trace),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end), s.n,
                 static_cast<unsigned long long>(s.aux));
  }
  return std::fclose(f) == 0;
}

// --- samplers ---------------------------------------------------------------

PerfNodeSampler::PerfNodeSampler(std::uint64_t seed, std::uint32_t node)
    : SamplerBase("perfnode", nullptr),
      seed_(seed),
      node_(node),
      shape_(seed, node) {}

Status PerfNodeSampler::DefineSchema(ldmsxx::Schema& schema,
                                     const ldmsxx::PluginParams&) {
  for (std::size_t i = 0; i < kNodeMetrics; ++i) {
    schema.AddMetric("metric_" + std::to_string(i), ldmsxx::MetricType::kU64);
  }
  return Status::Ok();
}

Status PerfNodeSampler::UpdateMetrics(TimeNs) {
  ++seq_;
  // Only metrics whose value changes are written, so the set's dirty map —
  // and with it the delta a pull ships — covers exactly those.
  for (std::size_t i = 0; i < kNodeMetrics; ++i) {
    if (i == 0 || shape_.counter(i) || seq_ == 1 ||
        GaugeEpoch(seed_, node_, i, seq_) !=
            GaugeEpoch(seed_, node_, i, seq_ - 1)) {
      set().SetU64(i, NodeValue(seed_, node_, shape_, i, seq_));
    }
  }
  return Status::Ok();
}

NodeSampler::NodeSampler(ldmsxx::SamplerPluginPtr inner, std::uint32_t node,
                         std::size_t capacity, Tracer* tracer)
    : inner_(std::move(inner)),
      name_(InstanceName(node)),
      node_(node),
      tracer_(tracer),
      ts_(capacity, 0) {}

Status NodeSampler::Sample(TimeNs now) {
  const std::uint64_t seq = seq_.load(std::memory_order_relaxed) + 1;
  Status st;
  if (tracer_ != nullptr && tracer_->recording()) {
    Span span;
    span.kind = SpanKind::kSample;
    span.trace = (static_cast<std::uint64_t>(node_) << 32) | seq;
    const std::uint64_t cpu0 = ThreadCpuNs();
    span.start = WallNs();
    st = inner_->Sample(now);
    span.end = WallNs();
    span.aux = ThreadCpuNs() - cpu0;
    tracer_->Add(span);
  } else {
    st = inner_->Sample(now);
  }
  if (seq <= ts_.size()) ts_[seq - 1] = now / kNsPerUs * kNsPerUs;
  seq_.store(seq, std::memory_order_release);
  return st;
}

std::uint64_t NodeSampler::seq_of(TimeNs ts) const {
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(seq(), ts_.size()));
  auto it = std::lower_bound(ts_.begin(), ts_.begin() + static_cast<long>(n),
                             ts);
  if (it == ts_.begin() + static_cast<long>(n) || *it != ts) return 0;
  return static_cast<std::uint64_t>(it - ts_.begin()) + 1;
}

std::pair<std::uint64_t, std::uint64_t> NodeSampler::seq_range(
    TimeNs t0, TimeNs t1) const {
  const auto end = ts_.begin() + static_cast<long>(std::min<std::uint64_t>(
                                     seq(), ts_.size()));
  const auto lo = std::lower_bound(ts_.begin(), end, t0);
  const auto hi = std::upper_bound(lo, end, t1);
  return {static_cast<std::uint64_t>(lo - ts_.begin()) + 1,
          static_cast<std::uint64_t>(hi - ts_.begin()) + 1};
}

// --- ProbeStore -------------------------------------------------------------

ProbeStore::ProbeStore(std::shared_ptr<ldmsxx::TsdbStore> inner,
                       std::size_t nodes, Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer), seen_(nodes, 0) {}

Status ProbeStore::StoreRows(const RowBatch& batch) {
  const bool traced = tracer_ != nullptr && tracer_->recording();
  const TimeNs entry = traced ? WallNs() : 0;
  const std::uint64_t sealed_before = traced ? inner_->segments_sealed() : 0;
  Status st = inner_->StoreRows(batch);
  const TimeNs done = WallNs();
  if (st.ok()) Observe(batch, entry, done, sealed_before);
  return st;
}

void ProbeStore::Observe(const RowBatch& batch, TimeNs entry, TimeNs done,
                         std::uint64_t sealed_before) {
  const bool traced = tracer_ != nullptr && tracer_->recording();
  bool sealed = false;
  if (traced) sealed = inner_->segments_sealed() != sealed_before;
  std::lock_guard<std::mutex> lock(mu_);
  for (const RowBatch::Row& row : batch.rows) {
    const std::uint64_t node = row.component_id;
    if (node < seen_.size() && seen_[node] == 0) {
      seen_[node] = 1;
      nodes_seen_.fetch_add(1, std::memory_order_release);
    }
    if (!window_) continue;
    ages_.push_back(done - std::min(done, row.ts));
    ++rows_;
    if (traced) {
      const TimeNs pulled = tracer_->pull_return(static_cast<std::uint32_t>(node));
      if (pulled != 0 && pulled <= entry) waits_.push_back(entry - pulled);
    }
  }
  if (!window_) return;
  ++calls_;
  if (traced) {
    Span span;
    span.kind = SpanKind::kStoreRows;
    span.tier = kTierRoot;
    span.trace = calls_;
    span.start = entry;
    span.end = done;
    span.n = static_cast<std::uint32_t>(batch.rows.size());
    span.aux = sealed ? 1 : 0;
    tracer_->Add(span);
  }
}

void ProbeStore::StartWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  window_ = true;
  ages_.clear();
  waits_.clear();
  rows_ = 0;
  calls_ = 0;
}

void ProbeStore::StopWindow() {
  std::lock_guard<std::mutex> lock(mu_);
  window_ = false;
}

std::vector<std::uint64_t> ProbeStore::ages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ages_;
}

std::uint64_t ProbeStore::window_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_;
}

std::uint64_t ProbeStore::store_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return calls_;
}

std::vector<std::uint64_t> ProbeStore::waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waits_;
}

// --- traced transport -------------------------------------------------------

struct TracedTransport::Shared {
  std::mutex mu;
  /// Inner endpoints made so far, for wire byte totals.
  std::vector<std::weak_ptr<Endpoint>> endpoints;
  std::atomic<std::uint64_t> batches{0}, batch_ns{0}, pulls{0}, useful{0},
      deltas{0};
};

namespace {

/// Endpoint decorator. stats(), set_delta_updates and set_request_timeout
/// are not virtual: the daemon sets the latter two on this object, so they
/// are copied to the inner endpoint before every request, and wire bytes are
/// read from the inner endpoint.
class TracedEndpoint final : public Endpoint {
 public:
  TracedEndpoint(std::shared_ptr<Endpoint> inner, std::uint8_t tier,
                 Tracer* tracer, std::shared_ptr<TracedTransport::Shared> shared)
      : inner_(std::move(inner)),
        tier_(tier),
        tracer_(tracer),
        shared_(std::move(shared)) {}

  bool connected() const override { return inner_->connected(); }
  void Close() override { inner_->Close(); }
  Status Dir(std::vector<std::string>* instances) override {
    Sync();
    return inner_->Dir(instances);
  }
  Status Lookup(const std::string& instance,
                std::vector<std::byte>* metadata) override {
    Sync();
    return inner_->Lookup(instance, metadata);
  }
  Status UpdateRaw(const std::string& instance,
                   std::vector<std::byte>* data) override {
    Sync();
    return inner_->UpdateRaw(instance, data);
  }
  void LookupAsync(const std::string& instance,
                   ldmsxx::AsyncHandler handler) override {
    Sync();
    inner_->LookupAsync(instance, std::move(handler));
  }
  void UpdateAsync(const std::string& instance,
                   ldmsxx::AsyncHandler handler) override {
    Sync();
    inner_->UpdateAsync(instance, std::move(handler));
  }
  Status LookupEx(const std::string& instance, std::vector<std::byte>* metadata,
                  LookupExtra* extra) override {
    Sync();
    return inner_->LookupEx(instance, metadata, extra);
  }
  Status Advertise(const ldmsxx::AdvertiseMsg& msg) override {
    Sync();
    return inner_->Advertise(msg);
  }
  void CorkWrites() override { inner_->CorkWrites(); }
  void UncorkWrites() override { inner_->UncorkWrites(); }

  void UpdateBatch(const std::vector<BatchUpdateSpec>& specs,
                   std::vector<BatchUpdateResult>* results) override {
    Sync();
    const std::uint64_t bytes0 = WireBytes();
    const TimeNs t0 = WallNs();
    inner_->UpdateBatch(specs, results);
    const TimeNs t1 = WallNs();
    std::uint64_t useful = 0, deltas = 0;
    for (std::size_t i = 0; i < results->size(); ++i) {
      const BatchUpdateResult& r = (*results)[i];
      if (!r.status.ok() || r.unchanged) continue;
      ++useful;
      if (r.delta) ++deltas;
      if (tier_ == kTierRoot) {
        tracer_->set_pull_return(NodeOfInstance(specs[i].instance), t1);
      }
    }
    shared_->batches.fetch_add(1, std::memory_order_relaxed);
    shared_->batch_ns.fetch_add(t1 - t0, std::memory_order_relaxed);
    shared_->pulls.fetch_add(specs.size(), std::memory_order_relaxed);
    shared_->useful.fetch_add(useful, std::memory_order_relaxed);
    shared_->deltas.fetch_add(deltas, std::memory_order_relaxed);
    Span span;
    span.kind = SpanKind::kUpdateBatch;
    span.tier = tier_;
    span.trace = ++cycle_;
    span.start = t0;
    span.end = t1;
    span.n = static_cast<std::uint32_t>(specs.size());
    span.aux = WireBytes() - bytes0;
    tracer_->Add(span);
  }

  Status RemoteQuery(const ldmsxx::QueryRequest& req,
                     ldmsxx::QueryResponse* resp) override {
    Sync();
    const std::uint32_t id =
        tracer_->Begin(SpanKind::kRemoteQuery, tier_,
                       tracer_->current_query_trace.load(),
                       tracer_->current_query.load());
    tracer_->current_remote.store(id);
    const std::uint64_t bytes0 = WireBytes();
    Status st = inner_->RemoteQuery(req, resp);
    tracer_->End(id, static_cast<std::uint32_t>(resp->rows.size()),
                 WireBytes() - bytes0);
    return st;
  }

 private:
  void Sync() {
    inner_->set_delta_updates(delta_updates());
    inner_->set_request_timeout(request_timeout());
  }
  std::uint64_t WireBytes() const {
    return inner_->stats().bytes_tx.load(std::memory_order_relaxed) +
           inner_->stats().bytes_rx.load(std::memory_order_relaxed);
  }

  std::shared_ptr<Endpoint> inner_;
  std::uint8_t tier_;
  Tracer* tracer_;
  std::shared_ptr<TracedTransport::Shared> shared_;
  std::uint64_t cycle_ = 0;
};

/// ServiceHandler decorator: times the leaf side of a fanned-out query.
class TracedHandler final : public ldmsxx::ServiceHandler {
 public:
  TracedHandler(ldmsxx::ServiceHandler* inner, std::uint8_t tier,
                Tracer* tracer)
      : inner_(inner), tier_(tier), tracer_(tracer) {}

  std::vector<std::string> HandleDir() override { return inner_->HandleDir(); }
  Status HandleLookup(const std::string& instance,
                      std::vector<std::byte>* metadata) override {
    return inner_->HandleLookup(instance, metadata);
  }
  Status HandleUpdate(const std::string& instance,
                      std::vector<std::byte>* data) override {
    return inner_->HandleUpdate(instance, data);
  }
  void HandleAdvertise(const ldmsxx::AdvertiseMsg& msg) override {
    inner_->HandleAdvertise(msg);
  }
  ldmsxx::MetricSetPtr HandleRdmaExpose(const std::string& instance) override {
    return inner_->HandleRdmaExpose(instance);
  }
  std::uint32_t HandleAssignHandle(const std::string& instance) override {
    return inner_->HandleAssignHandle(instance);
  }
  ldmsxx::MetricSetPtr HandleResolveHandle(std::uint32_t handle) override {
    return inner_->HandleResolveHandle(handle);
  }
  void HandleQuery(const ldmsxx::QueryRequest& req,
                   ldmsxx::QueryResponse* resp) override {
    const std::uint32_t id =
        tracer_->Begin(SpanKind::kHandleQuery, tier_,
                       tracer_->current_query_trace.load(),
                       tracer_->current_remote.load());
    inner_->HandleQuery(req, resp);
    tracer_->End(id, static_cast<std::uint32_t>(resp->rows.size()));
  }

 private:
  ldmsxx::ServiceHandler* inner_;
  std::uint8_t tier_;
  Tracer* tracer_;
};

/// Owns the handler decorator; the inner listener (declared last) stops
/// serving before the handler it calls into is destroyed.
class TracedListener final : public ldmsxx::Listener {
 public:
  TracedListener(std::unique_ptr<TracedHandler> handler,
                 std::unique_ptr<ldmsxx::Listener> inner)
      : handler_(std::move(handler)), inner_(std::move(inner)) {}
  std::string address() const override { return inner_->address(); }

 private:
  std::unique_ptr<TracedHandler> handler_;
  std::unique_ptr<ldmsxx::Listener> inner_;
};

}  // namespace

TracedTransport::TracedTransport(std::shared_ptr<ldmsxx::Transport> inner,
                                 std::uint8_t tier, Tracer* tracer)
    : inner_(std::move(inner)),
      tier_(tier),
      tracer_(tracer),
      shared_(std::make_shared<Shared>()) {}

Status TracedTransport::Listen(const std::string& address,
                               ldmsxx::ServiceHandler* handler,
                               std::unique_ptr<ldmsxx::Listener>* listener) {
  auto traced = std::make_unique<TracedHandler>(handler, tier_, tracer_);
  std::unique_ptr<ldmsxx::Listener> inner;
  Status st = inner_->Listen(address, traced.get(), &inner);
  if (!st.ok()) return st;
  *listener =
      std::make_unique<TracedListener>(std::move(traced), std::move(inner));
  return st;
}

Status TracedTransport::Connect(const std::string& address,
                                std::unique_ptr<Endpoint>* endpoint) {
  std::unique_ptr<Endpoint> inner;
  Status st = inner_->Connect(address, &inner);
  if (!st.ok()) return st;
  std::shared_ptr<Endpoint> shared_inner = std::move(inner);
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->endpoints.push_back(shared_inner);
  }
  *endpoint = std::make_unique<TracedEndpoint>(std::move(shared_inner), tier_,
                                               tracer_, shared_);
  return st;
}

TierWire TracedTransport::wire() const {
  TierWire w;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    for (const auto& weak : shared_->endpoints) {
      if (auto ep = weak.lock()) {
        w.bytes += ep->stats().bytes_tx.load(std::memory_order_relaxed) +
                   ep->stats().bytes_rx.load(std::memory_order_relaxed);
      }
    }
  }
  w.batches = shared_->batches.load();
  w.batch_ns = shared_->batch_ns.load();
  w.pulls = shared_->pulls.load();
  w.useful = shared_->useful.load();
  w.deltas = shared_->deltas.load();
  return w;
}

std::unique_ptr<ldmsxx::TransportRegistry> MakeRegistry(
    std::shared_ptr<ldmsxx::Transport> transport) {
  auto registry = std::make_unique<ldmsxx::TransportRegistry>();
  registry->Add(std::move(transport));
  return registry;
}

}  // namespace perfbench
