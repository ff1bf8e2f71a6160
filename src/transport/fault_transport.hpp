// Fault-injecting transport decorator. Wraps any Transport and, driven by a
// seeded deterministic FaultSchedule, injects the failure modes a production
// collector must survive (the Blue Waters churn of §IV-B): connection
// refusal, mid-frame disconnect, delayed delivery, frame truncation or
// corruption, and one-way stalls (request delivered, response never comes,
// surfaced as kTimeout just as the sock transport's deadline path would).
//
// Faults are decided per operation by FaultSchedule::Draw. Two sources feed
// a draw, in priority order:
//   1. an explicit queue per operation (InjectNext) — chaos tests use this
//      to script exact scenarios ("the next update loses its connection");
//   2. a probabilistic draw from a seeded xoshiro stream — same seed and
//      same operation order produce the identical fault sequence, which is
//      what makes the chaos suite reproducible when daemons are driven
//      deterministically (inline pools + SimClock).
// A disarmed schedule (set_armed(false), the default probabilities are all
// zero anyway) makes the decorator a pure passthrough, which is why a
// "fault"-named instance can sit in TransportRegistry::Default() at no cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "transport/transport.hpp"
#include "util/rng.hpp"

namespace ldmsxx {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kRefuseConnect,  // Connect() fails with kDisconnected
  kDisconnect,     // the connection dies mid-frame; endpoint is dead after
  kDelay,          // response delivery is delayed (real sleep, bounded)
  kTruncate,       // response payload is cut short
  kCorrupt,        // response payload has bytes flipped
  kStall,          // response never arrives; request completes with kTimeout
                   // (a query first waits out its request timeout)
};

/// Operation classes a fault can attach to.
enum class FaultOp : std::uint8_t {
  kConnect = 0,
  kDir,
  kLookup,
  kUpdate,
  kAdvertise,
  kQuery,  // fan-out RemoteQuery round-trips
};
constexpr std::size_t kFaultOpCount = 6;

/// How many of each fault the schedule has actually injected; chaos tests
/// assert against these.
struct FaultStats {
  std::atomic<std::uint64_t> refused_connects{0};
  std::atomic<std::uint64_t> disconnects{0};
  std::atomic<std::uint64_t> delays{0};
  std::atomic<std::uint64_t> truncations{0};
  std::atomic<std::uint64_t> corruptions{0};
  std::atomic<std::uint64_t> stalls{0};

  std::uint64_t total() const {
    return refused_connects.load(std::memory_order_relaxed) +
           disconnects.load(std::memory_order_relaxed) +
           delays.load(std::memory_order_relaxed) +
           truncations.load(std::memory_order_relaxed) +
           corruptions.load(std::memory_order_relaxed) +
           stalls.load(std::memory_order_relaxed);
  }
};

class FaultSchedule {
 public:
  /// Per-operation fault probabilities, applied independently in the order
  /// refuse/disconnect/stall/truncate/corrupt/delay (first hit wins).
  /// Inapplicable combinations (refuse on non-connect ops, truncate/corrupt
  /// on ops without a response payload) draw as no-fault.
  struct Probabilities {
    double refuse_connect = 0.0;
    double disconnect = 0.0;
    double stall = 0.0;
    double truncate = 0.0;
    double corrupt = 0.0;
    double delay = 0.0;
    /// Upper bound for kDelay's real sleep; keep small in tests.
    DurationNs max_delay = 2 * kNsPerMs;
  };

  FaultSchedule() : FaultSchedule(0, Probabilities()) {}
  explicit FaultSchedule(std::uint64_t seed)
      : FaultSchedule(seed, Probabilities()) {}
  FaultSchedule(std::uint64_t seed, Probabilities probs)
      : rng_(seed ^ 0x6c646d735f666c74ull), probs_(probs) {}

  /// Master switch; a disarmed schedule never injects (queued faults are
  /// retained for when it is re-armed).
  void set_armed(bool armed) {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = armed;
  }
  bool armed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return armed_;
  }

  void set_probabilities(const Probabilities& probs) {
    std::lock_guard<std::mutex> lock(mu_);
    probs_ = probs;
  }

  /// Script @p count copies of @p kind onto the queue for @p op; queued
  /// faults are consumed (FIFO) before any probabilistic draw.
  void InjectNext(FaultOp op, FaultKind kind, std::size_t count = 1);

  /// One fault decision. delay is set for kDelay; mutation seeds the
  /// truncation point / corruption mask for kTruncate and kCorrupt.
  struct Decision {
    FaultKind kind = FaultKind::kNone;
    DurationNs delay = 0;
    std::uint64_t mutation = 0;
  };
  Decision Draw(FaultOp op);

  const FaultStats& stats() const { return stats_; }

 private:
  static bool Applicable(FaultOp op, FaultKind kind);

  mutable std::mutex mu_;
  Rng rng_;
  Probabilities probs_;
  bool armed_ = true;
  std::deque<FaultKind> queued_[kFaultOpCount];
  FaultStats stats_;
};

/// Decorator: forwards to an inner transport, injecting faults per the
/// shared schedule. Listen() is a pure forward — faults model the network
/// between an aggregator and its producers, so they are applied on the
/// endpoint (client) side where the collector experiences them.
class FaultInjectingTransport final : public Transport {
 public:
  /// @param name registry name; defaults to "fault+<inner name>".
  FaultInjectingTransport(std::shared_ptr<Transport> inner,
                          std::shared_ptr<FaultSchedule> schedule,
                          std::string name = "");

  const std::string& name() const override { return name_; }

  Status Listen(const std::string& address, ServiceHandler* handler,
                std::unique_ptr<Listener>* listener) override;

  Status Connect(const std::string& address,
                 std::unique_ptr<Endpoint>* endpoint) override;

  FaultSchedule& schedule() { return *schedule_; }
  Transport& inner() { return *inner_; }

 private:
  std::shared_ptr<Transport> inner_;
  std::shared_ptr<FaultSchedule> schedule_;
  std::string name_;
};

}  // namespace ldmsxx
