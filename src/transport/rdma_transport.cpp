#include "transport/rdma_transport.hpp"

#include <chrono>
#include <unordered_map>

namespace ldmsxx {
namespace {

std::uint64_t NowSteadyNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class RdmaListener final : public Listener {
 public:
  RdmaListener(Fabric* fabric, std::string address, ServiceHandler* handler)
      : fabric_(fabric), address_(std::move(address)) {
    node_ = std::make_shared<FabricNode>(handler, &stats_);
  }

  ~RdmaListener() override {
    node_->Deactivate();
    fabric_->Unregister(address_, node_.get());
  }

  std::string address() const override { return address_; }
  std::shared_ptr<FabricNode> node() const { return node_; }

 private:
  Fabric* fabric_;
  std::string address_;
  std::shared_ptr<FabricNode> node_;
};

class RdmaEndpoint final : public Endpoint {
 public:
  RdmaEndpoint(std::shared_ptr<FabricNode> node, const RdmaOptions& options)
      : node_(std::move(node)), options_(options) {}

  bool connected() const override { return !closed_ && node_->alive(); }

  void Close() override {
    closed_ = true;
    pinned_.clear();
  }

  Status Dir(std::vector<std::string>* instances) override {
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    return node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      const std::uint64_t t0 = NowSteadyNs();
      *instances = h->HandleDir();
      const std::uint64_t dt = NowSteadyNs() - t0;
      if (srv != nullptr)
        srv->server_cpu_ns.fetch_add(dt, std::memory_order_relaxed);
      return Status::Ok();
    });
  }

  // Lookup pins the set; pulls address it by instance name, so no handle is
  // returned.
  Status LookupEx(const std::string& instance, std::vector<std::byte>* metadata,
                  LookupExtra* extra) override {
    if (extra != nullptr) *extra = LookupExtra{};
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    Status st = node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      const std::uint64_t t0 = NowSteadyNs();
      // Two-sided: fetch metadata AND pin the set's memory for one-sided
      // reads (memory registration).
      MetricSetPtr target = h->HandleRdmaExpose(instance);
      if (target == nullptr) {
        return Status{ErrorCode::kNotFound, "no such set: " + instance};
      }
      auto meta = target->metadata_bytes();
      metadata->assign(meta.begin(), meta.end());
      pinned_[instance] = std::move(target);
      const std::uint64_t dt = NowSteadyNs() - t0;
      if (srv != nullptr) {
        srv->server_cpu_ns.fetch_add(dt, std::memory_order_relaxed);
        srv->bytes_tx.fetch_add(metadata->size(), std::memory_order_relaxed);
      }
      stats_.bytes_rx.fetch_add(metadata->size(), std::memory_order_relaxed);
      return Status::Ok();
    });
    stats_.lookups.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

  // One-sided batch pull. RDMA needs no set handles — the endpoint reads
  // pinned memory directly — but it benefits from the same
  // DGN gate: an 8-byte read of the header's generation number decides
  // whether the full chunk is fetched, so quiescent sets cost one tiny read
  // instead of the whole data chunk. Server CPU stays uncharged throughout.
  void UpdateBatch(const std::vector<BatchUpdateSpec>& specs,
                   std::vector<BatchUpdateResult>* results) override {
    const std::size_t n = specs.size();
    results->assign(n, BatchUpdateResult{});
    if (n == 0) return;
    stats_.updates.fetch_add(n, std::memory_order_relaxed);
    stats_.update_batches.fetch_add(1, std::memory_order_relaxed);
    if (closed_ || !node_->alive()) {
      const Status down = closed_
                              ? Status{ErrorCode::kDisconnected,
                                       "endpoint closed"}
                              : Status{ErrorCode::kDisconnected,
                                       "peer is down"};
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      for (auto& r : *results) r.status = down;
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      BatchUpdateResult& r = (*results)[i];
      auto it = pinned_.find(specs[i].instance);
      if (it == pinned_.end()) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        r.status = {ErrorCode::kNotFound,
                    "set not looked up: " + specs[i].instance};
        continue;
      }
      const MetricSet& target = *it->second;
      // Gate read: one header-word fetch.
      if (options_.read_latency_ns > 0) SpinFor(options_.read_latency_ns);
      stats_.bytes_rx.fetch_add(8, std::memory_order_relaxed);
      if (target.data_gn() == specs[i].last_dgn && target.consistent()) {
        r.status = Status::Ok();
        r.unchanged = true;
        stats_.updates_unchanged.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (options_.read_latency_ns > 0) SpinFor(options_.read_latency_ns);
      // Delta read: the extent table lives beside the pinned chunk, so a
      // one-sided reader can pull just the changed bytes when the set
      // advanced exactly one transaction. Still no server CPU charged.
      if (delta_updates()) {
        ByteWriter dw(&r.data);
        if (target.SnapshotDelta(specs[i].last_dgn, dw).ok()) {
          r.status = Status::Ok();
          r.delta = true;
          stats_.bytes_rx.fetch_add(r.data.size(), std::memory_order_relaxed);
          stats_.updates_delta.fetch_add(1, std::memory_order_relaxed);
          stats_.delta_bytes_saved.fetch_add(
              target.data_size() - r.data.size(), std::memory_order_relaxed);
          continue;
        }
        r.data.clear();
      }
      r.data.resize(target.data_size());
      r.status = target.SnapshotData(r.data);
      if (!r.status.ok()) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        r.data.clear();
        continue;
      }
      stats_.bytes_rx.fetch_add(r.data.size(), std::memory_order_relaxed);
    }
  }

  Status Advertise(const AdvertiseMsg& msg) override {
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    return node_->WithHandler([&](ServiceHandler* h, TransportStats*) {
      h->HandleAdvertise(msg);
      return Status::Ok();
    });
  }

 private:
  std::shared_ptr<FabricNode> node_;
  RdmaOptions options_;
  std::unordered_map<std::string, MetricSetPtr> pinned_;
  bool closed_ = false;
};

}  // namespace

RdmaSimTransport::RdmaSimTransport(RdmaOptions options, Fabric* fabric)
    : options_(std::move(options)),
      fabric_(fabric != nullptr ? fabric : &Fabric::Instance()) {}

Status RdmaSimTransport::Listen(const std::string& address,
                                ServiceHandler* handler,
                                std::unique_ptr<Listener>* listener) {
  auto l = std::make_unique<RdmaListener>(fabric_, address, handler);
  Status st = fabric_->Register(address, l->node());
  if (!st.ok()) return st;
  *listener = std::move(l);
  return Status::Ok();
}

Status RdmaSimTransport::Connect(const std::string& address,
                                 std::unique_ptr<Endpoint>* endpoint) {
  auto node = fabric_->Find(address);
  if (node == nullptr || !node->alive()) {
    return {ErrorCode::kDisconnected, "no listener at " + address};
  }
  *endpoint = std::make_unique<RdmaEndpoint>(std::move(node), options_);
  return Status::Ok();
}

std::unique_ptr<RdmaSimTransport> RdmaSimTransport::Infiniband(Fabric* fabric) {
  RdmaOptions opts;
  opts.name = "rdma";
  opts.registered_bytes_per_conn = 8192;
  return std::make_unique<RdmaSimTransport>(std::move(opts), fabric);
}

std::unique_ptr<RdmaSimTransport> RdmaSimTransport::Gemini(Fabric* fabric) {
  RdmaOptions opts;
  opts.name = "ugni";
  opts.registered_bytes_per_conn = 4096;
  return std::make_unique<RdmaSimTransport>(std::move(opts), fabric);
}

}  // namespace ldmsxx
