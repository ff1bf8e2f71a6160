// Everything the benchmark puts around the program's public seams.
//
//   PerfNodeSampler — the benchmark-owned sampler plugin (see model.hpp).
//   NodeSampler     — SamplerPlugin decorator: gives each node's plugin its
//                     own name (ldmsd keys samplers by name), records the
//                     sample sequence and timestamps the checks need, and in
//                     a traced run times Sample().
//   ProbeStore      — Store decorator around the root's TsdbStore: the data
//                     age probe, the only probe in an untraced run.
//   TracedTransport — Transport/Endpoint/ServiceHandler decorators around
//                     sock, registered in a private TransportRegistry; they
//                     exist only in traced runs.
//
// Spans (name, start, end, parent, trace id) are kept in memory by Tracer and
// written out when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "daemon/plugin.hpp"
#include "model.hpp"
#include "sampler/sampler_base.hpp"
#include "store/store.hpp"
#include "store/tsdb/tsdb_store.hpp"
#include "transport/registry.hpp"
#include "transport/transport.hpp"

namespace perfbench {

using ldmsxx::Status;

enum class SpanKind : std::uint8_t {
  kSample,       ///< NodeSampler::Sample; aux = thread CPU ns
  kUpdateBatch,  ///< Endpoint::UpdateBatch; n = entries, aux = wire bytes
  kStoreRows,    ///< ProbeStore::StoreRows; n = rows, aux = 1 if it sealed
  kQuery,        ///< one client query (verb round trip or direct Query)
  kRemoteQuery,  ///< Endpoint::RemoteQuery root -> leaf; n = rows, aux = bytes
  kHandleQuery,  ///< ServiceHandler::HandleQuery on a leaf; n = rows
  kScan,         ///< TsdbStore::Query full-range scan of one shard; n = rows
};
const char* SpanName(SpanKind kind);

enum Tier : std::uint8_t { kTierNone = 0, kTierLeaf = 1, kTierRoot = 2 };
const char* TierName(std::uint8_t tier);

struct Span {
  TimeNs start = 0;
  TimeNs end = 0;
  std::uint64_t trace = 0;
  std::uint64_t aux = 0;
  std::uint32_t id = 0;      ///< 1-based index; 0 = none
  std::uint32_t parent = 0;  ///< id of the causing span, 0 = root span
  std::uint32_t n = 0;
  SpanKind kind = SpanKind::kSample;
  std::uint8_t tier = kTierNone;
};

/// In-memory span log plus the cross-layer bookkeeping that links spans
/// recorded on different threads. Thread-safe.
class Tracer {
 public:
  /// @param nodes    node ids the pull-return table covers
  /// @param expected spans reserved up front, so recording never stalls
  ///                 the recording threads on a reallocation
  Tracer(std::size_t nodes, std::size_t expected) : pull_return_(nodes) {
    spans_.reserve(expected);
  }

  /// Open a span now; returns its id for End() and for children's parent.
  std::uint32_t Begin(SpanKind kind, std::uint8_t tier, std::uint64_t trace,
                      std::uint32_t parent);
  void End(std::uint32_t id, std::uint32_t n = 0, std::uint64_t aux = 0);
  /// Record a finished span.
  std::uint32_t Add(const Span& span);

  /// Only spans that start while recording is on are kept.
  void set_recording(bool on) { recording_.store(on); }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  std::vector<Span> Snapshot() const;
  /// Write every span as CSV; false on I/O failure.
  bool WriteCsv(const std::string& path) const;

  /// Root tier: when each node's newest sample finished its pull.
  void set_pull_return(std::uint32_t node, TimeNs t) {
    if (node < pull_return_.size()) {
      pull_return_[node].store(t, std::memory_order_relaxed);
    }
  }
  TimeNs pull_return(std::uint32_t node) const {
    return node < pull_return_.size()
               ? pull_return_[node].load(std::memory_order_relaxed)
               : 0;
  }
  /// Span ids that causally enclose work on other threads: the client query
  /// being served, and the root -> leaf request in flight.
  std::atomic<std::uint32_t> current_query{0};
  std::atomic<std::uint64_t> current_query_trace{0};
  std::atomic<std::uint32_t> current_remote{0};

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<bool> recording_{false};
  std::vector<std::atomic<TimeNs>> pull_return_;
};

/// The benchmark-owned sampler plugin: see model.hpp for its value model.
class PerfNodeSampler final : public ldmsxx::SamplerBase {
 public:
  PerfNodeSampler(std::uint64_t seed, std::uint32_t node);

 protected:
  Status DefineSchema(ldmsxx::Schema& schema,
                      const ldmsxx::PluginParams& params) override;
  Status UpdateMetrics(TimeNs now) override;

 private:
  std::uint64_t seed_;
  std::uint32_t node_;
  PerfNodeShape shape_;
  std::uint64_t seq_ = 0;
};

/// Per-node SamplerPlugin decorator (see header comment).
class NodeSampler final : public ldmsxx::SamplerPlugin {
 public:
  /// @param capacity samples whose timestamps are kept for the checks
  NodeSampler(ldmsxx::SamplerPluginPtr inner, std::uint32_t node,
              std::size_t capacity, Tracer* tracer);

  const std::string& name() const override { return name_; }
  Status Init(ldmsxx::MemManager& mem, ldmsxx::SetRegistry& sets,
              const ldmsxx::PluginParams& params) override {
    return inner_->Init(mem, sets, params);
  }
  Status Sample(TimeNs now) override;
  std::vector<ldmsxx::MetricSetPtr> Sets() const override {
    return inner_->Sets();
  }

  std::uint32_t node() const { return node_; }
  /// Samples taken so far (the newest sequence number).
  std::uint64_t seq() const { return seq_.load(std::memory_order_acquire); }
  /// Set timestamp (microsecond resolution, as stored) of sample @p seq, or
  /// 0 when it was not kept.
  TimeNs ts_of(std::uint64_t seq) const {
    return seq >= 1 && seq <= std::min<std::uint64_t>(this->seq(), ts_.size())
               ? ts_[seq - 1]
               : 0;
  }
  /// Sequence number of the sample stamped @p ts, 0 when none.
  std::uint64_t seq_of(TimeNs ts) const;
  /// Samples stamped inside [t0, t1], as a half-open range [first, end).
  std::pair<std::uint64_t, std::uint64_t> seq_range(TimeNs t0, TimeNs t1) const;

 private:
  ldmsxx::SamplerPluginPtr inner_;
  std::string name_;
  std::uint32_t node_;
  Tracer* tracer_;
  std::vector<TimeNs> ts_;  ///< fixed size; slot i written before seq_ = i+1
  std::atomic<std::uint64_t> seq_{0};
};

/// Store decorator around a TsdbStore: measures data age (row visible to
/// Query minus its sample timestamp) for every row, and in a traced run
/// records the store_runtime and tsdb spans.
class ProbeStore final : public ldmsxx::Store {
 public:
  ProbeStore(std::shared_ptr<ldmsxx::TsdbStore> inner, std::size_t nodes,
             Tracer* tracer);

  const std::string& name() const override { return inner_->name(); }
  bool row_capable() const override { return true; }
  /// The root policy always decomposes, so rows arrive through StoreRows;
  /// whole-set stores bypass the probe.
  Status StoreSet(const ldmsxx::MetricSet& set) override {
    return inner_->StoreSet(set);
  }
  Status StoreRows(const ldmsxx::RowBatch& batch) override;
  Status Flush() override { return inner_->Flush(); }

  ldmsxx::TsdbStore& inner() { return *inner_; }

  /// Ages are collected only between StartWindow and StopWindow.
  void StartWindow();
  void StopWindow();
  /// Data ages (ns) of rows stored inside the window.
  std::vector<std::uint64_t> ages() const;
  std::uint64_t window_rows() const;
  /// StoreRows calls inside the window, and the per-row store-queue waits
  /// (root pull return -> StoreRows entry; traced only).
  std::uint64_t store_calls() const;
  std::vector<std::uint64_t> waits() const;

  /// Distinct nodes stored at least once (setup readiness).
  std::size_t nodes_seen() const {
    return nodes_seen_.load(std::memory_order_acquire);
  }

 private:
  void Observe(const ldmsxx::RowBatch& batch, TimeNs entry, TimeNs done,
               std::uint64_t sealed_before);

  std::shared_ptr<ldmsxx::TsdbStore> inner_;
  Tracer* tracer_;
  mutable std::mutex mu_;
  bool window_ = false;
  std::vector<std::uint64_t> ages_;
  std::vector<std::uint64_t> waits_;
  std::uint64_t rows_ = 0;
  std::uint64_t calls_ = 0;
  std::vector<std::uint8_t> seen_;
  std::atomic<std::size_t> nodes_seen_{0};
};

/// Wire counters of every endpoint one traced transport created.
struct TierWire {
  std::uint64_t bytes = 0;       ///< tx + rx, read from the inner endpoints
  std::uint64_t batches = 0;     ///< UpdateBatch calls (= collect cycles)
  std::uint64_t batch_ns = 0;    ///< time inside UpdateBatch
  std::uint64_t pulls = 0;       ///< batch entries
  std::uint64_t useful = 0;      ///< entries that carried a new sample
  std::uint64_t deltas = 0;      ///< ...of which as a delta payload
};

/// sock, decorated. One instance per daemon, labelled with its tier.
class TracedTransport final : public ldmsxx::Transport {
 public:
  TracedTransport(std::shared_ptr<ldmsxx::Transport> inner, std::uint8_t tier,
                  Tracer* tracer);

  const std::string& name() const override { return inner_->name(); }
  Status Listen(const std::string& address, ldmsxx::ServiceHandler* handler,
                std::unique_ptr<ldmsxx::Listener>* listener) override;
  Status Connect(const std::string& address,
                 std::unique_ptr<ldmsxx::Endpoint>* endpoint) override;

  /// Counters summed over every endpoint this transport made.
  TierWire wire() const;

  struct Shared;  ///< state the endpoints report into

 private:
  std::shared_ptr<ldmsxx::Transport> inner_;
  std::uint8_t tier_;
  Tracer* tracer_;
  std::shared_ptr<Shared> shared_;
};

/// A private registry whose "sock" is @p transport.
std::unique_ptr<ldmsxx::TransportRegistry> MakeRegistry(
    std::shared_ptr<ldmsxx::Transport> transport);

}  // namespace perfbench
