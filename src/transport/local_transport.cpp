#include "transport/local_transport.hpp"

#include <atomic>
#include <chrono>

namespace ldmsxx {
namespace {

std::uint64_t NowSteadyNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class LocalListener final : public Listener {
 public:
  LocalListener(Fabric* fabric, std::string address, ServiceHandler* handler)
      : fabric_(fabric), address_(std::move(address)) {
    node_ = std::make_shared<FabricNode>(handler, &stats_);
  }

  ~LocalListener() override {
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

class LocalEndpoint final : public Endpoint {
 public:
  explicit LocalEndpoint(std::shared_ptr<FabricNode> node)
      : node_(std::move(node)) {}

  bool connected() const override { return !closed_ && node_->alive(); }

  void Close() override { closed_ = true; }

  Status Dir(std::vector<std::string>* instances) override {
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    return node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      const std::uint64_t t0 = NowSteadyNs();
      *instances = h->HandleDir();
      ChargeServer(srv, NowSteadyNs() - t0);
      std::uint64_t resp_bytes = kFrameHeaderSize + 5;
      for (const auto& name : *instances) resp_bytes += 2 + name.size();
      Account(kFrameHeaderSize, resp_bytes, srv);
      return Status::Ok();
    });
  }

  Status LookupEx(const std::string& instance, std::vector<std::byte>* metadata,
                  LookupExtra* extra) override {
    if (extra != nullptr) *extra = LookupExtra{};
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    Status st = node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      const std::uint64_t t0 = NowSteadyNs();
      Status inner = h->HandleLookup(instance, metadata);
      // The handle rides in the lookup response on the wire, as for sock.
      if (inner.ok() && extra != nullptr) {
        extra->handle = h->HandleAssignHandle(instance);
      }
      ChargeServer(srv, NowSteadyNs() - t0);
      Account(kFrameHeaderSize + 2 + instance.size(),
              kFrameHeaderSize + 5 + metadata->size(), srv);
      return inner;
    });
    stats_.lookups.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

  void UpdateBatch(const std::vector<BatchUpdateSpec>& specs,
                   std::vector<BatchUpdateResult>* results) override {
    const std::size_t n = specs.size();
    results->assign(n, BatchUpdateResult{});
    if (n == 0) return;
    if (closed_) {
      for (auto& r : *results) {
        r.status = {ErrorCode::kDisconnected, "endpoint closed"};
      }
      return;
    }
    // One modeled request frame for the whole batch (12 bytes per entry),
    // one response frame whose size depends on what each entry answered.
    std::uint64_t resp_bytes = kFrameHeaderSize + 5;
    Status st = node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      const std::uint64_t t0 = NowSteadyNs();
      for (std::size_t i = 0; i < n; ++i) {
        BatchUpdateResult& r = (*results)[i];
        MetricSetPtr set = h->HandleResolveHandle(specs[i].handle);
        if (set == nullptr) {
          r.status = {ErrorCode::kNotFound, "unknown set handle"};
          resp_bytes += 6;  // handle + kind + code
          continue;
        }
        if (set->data_gn() == specs[i].last_dgn && set->consistent()) {
          r.status = Status::Ok();
          r.unchanged = true;
          resp_bytes += 5;  // handle + kind marker only
          stats_.updates_unchanged.fetch_add(1, std::memory_order_relaxed);
          if (srv != nullptr) {
            srv->updates_unchanged.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        // Delta path, gated on the client-side knob exactly like the wire
        // client's declared protocol version; falls back to the full chunk
        // whenever no (smaller) delta exists for this base DGN.
        if (delta_updates()) {
          ByteWriter dw(&r.data);
          if (set->SnapshotDelta(specs[i].last_dgn, dw).ok()) {
            r.status = Status::Ok();
            r.delta = true;
            resp_bytes += 9 + r.data.size();  // handle + kind + len + delta
            const std::uint64_t saved = set->data_size() - r.data.size();
            stats_.updates_delta.fetch_add(1, std::memory_order_relaxed);
            stats_.delta_bytes_saved.fetch_add(saved,
                                               std::memory_order_relaxed);
            if (srv != nullptr) {
              srv->updates_delta.fetch_add(1, std::memory_order_relaxed);
              srv->delta_bytes_saved.fetch_add(saved,
                                               std::memory_order_relaxed);
            }
            continue;
          }
          r.data.clear();
        }
        r.data.resize(set->data_size());
        r.status = set->SnapshotData(r.data);
        if (!r.status.ok()) {
          r.data.clear();
          resp_bytes += 6;
        } else {
          resp_bytes += 9 + r.data.size();  // handle + kind + len + chunk
        }
      }
      ChargeServer(srv, NowSteadyNs() - t0);
      // +1: the request's trailing client-version byte.
      Account(kFrameHeaderSize + 4 + 12 * n + 1, resp_bytes, srv);
      if (srv != nullptr) {
        srv->update_batches.fetch_add(1, std::memory_order_relaxed);
        srv->updates.fetch_add(n, std::memory_order_relaxed);
      }
      return Status::Ok();
    });
    stats_.updates.fetch_add(n, std::memory_order_relaxed);
    stats_.update_batches.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) {
      // The node died: the whole batch is lost.
      stats_.errors.fetch_add(1, std::memory_order_relaxed);
      for (auto& r : *results) {
        r.status = st;
        r.unchanged = false;
        r.data.clear();
      }
    }
  }

  Status Advertise(const AdvertiseMsg& msg) override {
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    return node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      h->HandleAdvertise(msg);
      Account(kFrameHeaderSize + EncodeAdvertise(msg).size(), 0, srv);
      return Status::Ok();
    });
  }

  Status RemoteQuery(const QueryRequest& req, QueryResponse* resp) override {
    *resp = QueryResponse{};
    if (closed_) return {ErrorCode::kDisconnected, "endpoint closed"};
    Status st = node_->WithHandler([&](ServiceHandler* h, TransportStats* srv) {
      const std::uint64_t t0 = NowSteadyNs();
      h->HandleQuery(req, resp);
      ChargeServer(srv, NowSteadyNs() - t0);
      // Model the frames the wire transport would have exchanged.
      Account(kFrameHeaderSize + EncodeQueryRequest(req).size(),
              kFrameHeaderSize + EncodeQueryResponse(*resp).size(), srv);
      return Status::Ok();
    });
    if (!st.ok()) stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return st;
  }

 private:
  void ChargeServer(TransportStats* srv, std::uint64_t ns) {
    if (srv != nullptr)
      srv->server_cpu_ns.fetch_add(ns, std::memory_order_relaxed);
    stats_.server_cpu_ns.fetch_add(ns, std::memory_order_relaxed);
  }

  void Account(std::uint64_t tx, std::uint64_t rx, TransportStats* srv) {
    stats_.bytes_tx.fetch_add(tx, std::memory_order_relaxed);
    stats_.bytes_rx.fetch_add(rx, std::memory_order_relaxed);
    if (srv != nullptr) {
      srv->bytes_rx.fetch_add(tx, std::memory_order_relaxed);
      srv->bytes_tx.fetch_add(rx, std::memory_order_relaxed);
    }
  }

  std::shared_ptr<FabricNode> node_;
  std::atomic<bool> closed_{false};
};

}  // namespace

LocalTransport::LocalTransport(Fabric* fabric)
    : fabric_(fabric != nullptr ? fabric : &Fabric::Instance()) {}

Status LocalTransport::Listen(const std::string& address,
                              ServiceHandler* handler,
                              std::unique_ptr<Listener>* listener) {
  auto local = std::make_unique<LocalListener>(fabric_, address, handler);
  Status st = fabric_->Register(address, local->node());
  if (!st.ok()) return st;
  *listener = std::move(local);
  return Status::Ok();
}

Status LocalTransport::Connect(const std::string& address,
                               std::unique_ptr<Endpoint>* endpoint) {
  auto node = fabric_->Find(address);
  if (node == nullptr || !node->alive()) {
    return {ErrorCode::kDisconnected, "no listener at " + address};
  }
  *endpoint = std::make_unique<LocalEndpoint>(std::move(node));
  return Status::Ok();
}

}  // namespace ldmsxx
