// Transport plugin abstraction. ldmsd loads one transport per connection
// type; the paper ships sock (TCP), rdma (Infiniband/iWARP), and ugni
// (Gemini). We provide:
//   "local" — in-process two-sided transport (function-call fabric)
//   "sock"  — real TCP over loopback with an epoll reactor server
//   "rdma"  — simulated IB RDMA: one-sided data reads that consume no
//             target CPU (modeled after Figure 2's note on flow {f})
//   "ugni"  — simulated Gemini RDMA; same semantics, different fan-in and
//             latency envelope
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/metric_set.hpp"
#include "transport/message.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace ldmsxx {

/// Counters every endpoint/listener maintains; benches read these for the
/// network-footprint rows of §IV-D.
struct TransportStats {
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> bytes_tx{0};
  std::atomic<std::uint64_t> bytes_rx{0};
  std::atomic<std::uint64_t> errors{0};
  /// Requests issued but not yet completed (gauge; pipelined transports).
  std::atomic<std::uint64_t> outstanding{0};
  /// Requests completed with kTimeout after exceeding their deadline.
  std::atomic<std::uint64_t> timeouts{0};
  /// Nanoseconds of *server-side* CPU consumed servicing this peer; stays 0
  /// for one-sided RDMA data fetches.
  std::atomic<std::uint64_t> server_cpu_ns{0};
  /// kUpdateBatchReq frames issued (client) or served (listener); `updates`
  /// counts the entries they carried, so updates/update_batches is the sets
  /// pulled per frame.
  std::atomic<std::uint64_t> update_batches{0};
  /// Batch entries answered with the 5-byte "unchanged" marker instead of a
  /// full data chunk (DGN gate hit).
  std::atomic<std::uint64_t> updates_unchanged{0};
  /// Batch entries answered with a changed-extents delta instead of a full
  /// data chunk (the DGN advanced exactly one transaction and the dirty set
  /// was small enough to win).
  std::atomic<std::uint64_t> updates_delta{0};
  /// Wire bytes avoided by those deltas: sum over delta entries of
  /// (full data chunk size - delta payload size).
  std::atomic<std::uint64_t> delta_bytes_saved{0};
};

/// Service interface a daemon exposes to its listeners. Implemented by
/// Ldmsd; invoked by transport server machinery.
class ServiceHandler {
 public:
  virtual ~ServiceHandler() = default;

  /// List available set instance names.
  virtual std::vector<std::string> HandleDir() = 0;

  /// Return the serialized metadata chunk for @p instance.
  virtual Status HandleLookup(const std::string& instance,
                              std::vector<std::byte>* metadata) = 0;

  /// A producer announced itself and asks to be collected from via
  /// @p dialback (asymmetric-network support). Default: ignore.
  virtual void HandleAdvertise(const AdvertiseMsg& msg) { (void)msg; }

  /// RDMA transports pin the set itself and read its memory directly.
  /// Returns nullptr when the instance is unknown.
  virtual MetricSetPtr HandleRdmaExpose(const std::string& instance) = 0;

  /// Assign (or return the existing) compact handle for @p instance; a
  /// lookup response carries it, and batch pulls address the set by it.
  virtual std::uint32_t HandleAssignHandle(const std::string& instance) = 0;

  /// Resolve a handle previously returned by HandleAssignHandle back to the
  /// live set. Returns nullptr for unknown/stale handles (e.g. the set was
  /// removed); batch serving turns that into a per-entry kNotFound.
  virtual MetricSetPtr HandleResolveHandle(std::uint32_t handle) = 0;

  /// Run a tsdb predicate against this daemon's local store (tree-sharded
  /// query fan-out). The default keeps legacy handlers honest: the whole
  /// request fails with kUnsupported, which a fanning-out root counts as a
  /// failed leaf rather than a transport error.
  virtual void HandleQuery(const QueryRequest& req, QueryResponse* resp) {
    (void)req;
    resp->code = static_cast<std::uint8_t>(ErrorCode::kUnsupported);
    resp->error = "query not supported by this peer";
  }

  /// Retired per-set pull: reports kUnsupported, and nothing serves or
  /// calls it. Kept for the same reason as Endpoint's retired entry points
  /// (see the end of Endpoint).
  virtual Status HandleUpdate(const std::string& instance,
                              std::vector<std::byte>* data);
};

/// Default per-request deadline for transports that enforce one. Generous:
/// its job is to unwedge aggregator threads from a stalled peer, not to
/// police slow-but-alive ones.
constexpr DurationNs kDefaultRequestTimeoutNs = 5 * kNsPerSec;

/// Completion of a request: the status plus the response body. The sock
/// endpoint's pending table holds these; so do the retired async entry
/// points at the end of Endpoint.
using AsyncHandler = std::function<void(Status, std::vector<std::byte>)>;

/// Client side of a connection to one peer. The protocol has two steps
/// (Figure 2): LookupEx ships a set's metadata once and returns its handle,
/// then every interval one UpdateBatch pulls the data chunks of all of a
/// producer's sets, DGN-gated and possibly delta-encoded.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  virtual bool connected() const = 0;
  virtual void Close() = 0;

  /// Set discovery (flow preceding lookup).
  virtual Status Dir(std::vector<std::string>* instances) = 0;

  /// What a lookup returns beside the metadata.
  struct LookupExtra {
    /// Compact id batch pulls address the set by. One-sided transports
    /// address by instance name and leave it kInvalidSetHandle.
    std::uint32_t handle = kInvalidSetHandle;
  };

  /// Fetch serialized metadata for @p instance and its set handle (Figure 2
  /// flows {a}-{b}). @p extra may be null.
  virtual Status LookupEx(const std::string& instance,
                          std::vector<std::byte>* metadata,
                          LookupExtra* extra) = 0;

  /// LookupEx without the handle.
  virtual Status Lookup(const std::string& instance,
                        std::vector<std::byte>* metadata);

  /// One set's slot in a batched pull.
  struct BatchUpdateSpec {
    std::string instance;  // addressing for one-sided (rdma) transports
    std::uint32_t handle = kInvalidSetHandle;
    std::uint64_t last_dgn = 0;  // DGN the caller last consumed
  };

  /// Per-spec outcome of UpdateBatch.
  struct BatchUpdateResult {
    Status status;
    bool unchanged = false;  // peer answered with the 5-byte DGN-gate marker
    /// data holds a delta payload (apply with MetricSet::ApplyDelta) rather
    /// than a full data chunk.
    bool delta = false;
    std::vector<std::byte> data;  // data chunk; empty if unchanged or failed
  };

  /// Pull every spec in one kUpdateBatchReq frame (flows {e}-{g}; only data
  /// chunks move, never metadata). Synchronous: returns once every result
  /// is filled, in spec order. A handle repeated within one call fails that
  /// entry with kInvalidArgument on wire transports (replies are keyed by
  /// handle).
  virtual void UpdateBatch(const std::vector<BatchUpdateSpec>& specs,
                           std::vector<BatchUpdateResult>* results) = 0;

  /// Pull-and-apply helper for tools and tests: a one-set UpdateBatch with
  /// last_dgn taken from @p mirror, then the answer applied into it (full
  /// chunk or delta). An "unchanged" answer is Ok with the mirror left as
  /// it is. The daemon drives UpdateBatch itself.
  Status Update(const std::string& instance, std::uint32_t handle,
                MetricSet& mirror);

  /// Fire-and-forget advertise (producer-initiated connection setup).
  virtual Status Advertise(const AdvertiseMsg& msg) = 0;

  /// Forward a tsdb query to the peer and wait for its result page. The
  /// base implementation reports kUnsupported — only transports that carry
  /// kQueryReq frames (sock, local) override it.
  virtual Status RemoteQuery(const QueryRequest& req, QueryResponse* resp);

  /// Whether this client asks peers for delta-encoded batch entries
  /// (declared in the batch request's trailing version byte). On by
  /// default; `delta=0`, tests and ablation benches turn it off to force
  /// the full-chunk path on an otherwise identical schedule.
  void set_delta_updates(bool enabled) {
    delta_updates_.store(enabled, std::memory_order_relaxed);
  }
  bool delta_updates() const {
    return delta_updates_.load(std::memory_order_relaxed);
  }

  /// Per-request deadline; a request not completed within it finishes with
  /// kTimeout. 0 disables the deadline. Only transports with a real wire in
  /// between enforce it (sock); in-process transports complete inline.
  void set_request_timeout(DurationNs timeout) {
    request_timeout_ns_.store(timeout, std::memory_order_relaxed);
  }
  DurationNs request_timeout() const {
    return request_timeout_ns_.load(std::memory_order_relaxed);
  }

  const TransportStats& stats() const { return stats_; }

  /// Retired per-set entry points. No transport overrides them and nothing
  /// in the library calls them; they remain only because the frozen
  /// end-to-end harness (perfbench/src/probes.cpp) overrides them. UpdateRaw
  /// and UpdateAsync report kUnsupported, LookupAsync completes inline via
  /// Lookup, and corking is a no-op.
  virtual Status UpdateRaw(const std::string& instance,
                           std::vector<std::byte>* data);
  virtual void LookupAsync(const std::string& instance, AsyncHandler handler);
  virtual void UpdateAsync(const std::string& instance, AsyncHandler handler);
  virtual void CorkWrites() {}
  virtual void UncorkWrites() {}

 protected:
  TransportStats stats_;
  std::atomic<DurationNs> request_timeout_ns_{kDefaultRequestTimeoutNs};
  std::atomic<bool> delta_updates_{true};
};

/// Server side: alive while in scope; dispatches requests to the handler.
class Listener {
 public:
  virtual ~Listener() = default;
  virtual std::string address() const = 0;
  const TransportStats& stats() const { return stats_; }

 protected:
  TransportStats stats_;
};

/// A transport plugin: a factory for listeners and endpoints.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Plugin name ("sock", "rdma", "ugni", "local").
  virtual const std::string& name() const = 0;

  /// Start serving @p handler at @p address. The listener stops when the
  /// returned object is destroyed.
  virtual Status Listen(const std::string& address, ServiceHandler* handler,
                        std::unique_ptr<Listener>* listener) = 0;

  /// Connect to a listening peer.
  virtual Status Connect(const std::string& address,
                         std::unique_ptr<Endpoint>* endpoint) = 0;
};

}  // namespace ldmsxx
