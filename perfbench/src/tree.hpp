// The collection path under test, built from the program's public API in one
// process: a sampler ldmsd serving one set per simulated node -> L leaf
// ldmsds, each pulling a seeded shard of the sets -> a root ldmsd pulling
// every leaf and storing through store_tsdb with a decomp= spec. Every hop is
// sock over loopback with the real clock; all schedules are synchronous
// (wall-aligned), with the pulls offset after the sample instant.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "daemon/control.hpp"
#include "daemon/ldmsd.hpp"
#include "model.hpp"
#include "probes.hpp"

namespace perfbench {

/// Pull offsets after the sample instant (paper §IV-B): leaves pull once
/// the samplers have written, the root once the leaves have pulled. Each
/// stage normally takes tens of milliseconds, so a stage stalled by less
/// than about 300 ms still finishes before the next one reads its output.
constexpr DurationNs kLeafOffset = 400 * kNsPerMs;
constexpr DurationNs kRootOffset = 700 * kNsPerMs;

/// Root store policy name and its table.
inline const char* kRootPolicy = "tsdb";
inline const char* kRootTable = "node";

/// Per-node sample timestamps to keep for a run measuring @p seconds: the
/// set-ups, the window, the drain and slack.
inline std::size_t SampleCapacity(double seconds) {
  return static_cast<std::size_t>((seconds + 90) * 1e9 / kSampleInterval);
}

/// Sleep until kSetupPhase past the next interval boundary, so every set-up
/// starts at the same phase of the wall-aligned schedule and setup_s does
/// not carry a random wait for the first tick.
void AlignSetup();

/// Seeded node -> leaf split: a shuffled deal, so every leaf gets the same
/// number of nodes and a different mix of plugins per seed. Sorted shards.
std::vector<std::vector<std::uint32_t>> SplitNodes(std::uint64_t seed,
                                                   std::size_t nodes,
                                                   std::size_t leaves);

struct TreeConfig {
  std::uint64_t seed = 1;
  std::size_t nodes = 0;
  std::size_t leaves = 2;
  std::string dir;  ///< this tree's scratch directory
  bool traced = false;
  std::size_t sample_capacity = 0;  ///< per-node timestamps kept for checks
  /// Root control socket path (relative, short); empty = none.
  std::string control_socket;
  /// Called for each leaf daemon before it starts (history adds its store).
  std::function<Status(std::size_t leaf, ldmsxx::Ldmsd& daemon)> leaf_setup;
};

class Tree {
 public:
  explicit Tree(TreeConfig config);
  ~Tree();
  Tree(const Tree&) = delete;
  Tree& operator=(const Tree&) = delete;

  /// Create the sampler daemon and its node plugins (the slow part of a
  /// set-up: one set allocation per node).
  Status Build();
  /// Start the sampler, then create and start the leaves and the root.
  Status Start();
  /// Block until every node's set has been stored once at the root.
  bool WaitReady(double timeout_s) const;
  /// Stop the root (draining its store queue), the leaves, then the sampler.
  void Stop();

  const TreeConfig& config() const { return config_; }
  Tracer* tracer() const { return tracer_.get(); }
  ProbeStore& probe() const { return *probe_; }
  ldmsxx::TsdbStore& tsdb() const { return *tsdb_; }
  ldmsxx::Ldmsd& sampler() const { return *sampler_; }
  ldmsxx::Ldmsd& root() const { return *root_; }
  const std::vector<std::unique_ptr<ldmsxx::Ldmsd>>& leaves() const {
    return leaves_;
  }
  const std::vector<std::shared_ptr<NodeSampler>>& nodes() const {
    return nodes_;
  }
  /// Traced runs only: the per-tier transport decorators.
  const TracedTransport* transport(std::uint8_t tier) const;

 private:
  ldmsxx::LdmsdOptions DaemonOptions(const std::string& name, bool listen,
                                     std::uint8_t tier);

  TreeConfig config_;
  std::unique_ptr<Tracer> tracer_;
  std::vector<std::shared_ptr<TracedTransport>> transports_;  // [tier]
  std::vector<std::unique_ptr<ldmsxx::TransportRegistry>> registries_;
  std::vector<std::vector<std::uint32_t>> shards_;
  std::vector<std::shared_ptr<NodeSampler>> nodes_;
  std::shared_ptr<ldmsxx::TsdbStore> tsdb_;
  std::shared_ptr<ProbeStore> probe_;
  std::unique_ptr<ldmsxx::Ldmsd> sampler_;
  std::vector<std::unique_ptr<ldmsxx::Ldmsd>> leaves_;
  std::unique_ptr<ldmsxx::Ldmsd> root_;
  std::unique_ptr<ldmsxx::ControlServer> control_;
  bool stopped_ = false;
};

/// Stop @p tree and keep it until the process exits. Freeing a pipeline of
/// thousands of sets takes about two seconds (one set-memory free at a time),
/// which would otherwise be spent between set-ups; main() ends the process
/// with std::_Exit once every tree is stopped and the result is printed.
void Retire(std::unique_ptr<Tree> tree);

/// Per-daemon counters read at a window edge.
struct DaemonCounters {
  std::uint64_t samples = 0, update_ns = 0, updates_ok = 0,
                updates_delta = 0, wire_bytes = 0, skipped = 0, shed = 0;
};
DaemonCounters ReadCounters(const ldmsxx::Ldmsd& daemon);

/// Everything read at one edge of the measured window.
struct TreeSnapshot {
  std::vector<DaemonCounters> daemons;  ///< sampler, root, then the leaves
  TierWire leaf, root;                  ///< traced runs only
  std::vector<std::uint64_t> seqs;      ///< newest sample of every node
  std::vector<ldmsxx::Ldmsd::ProducerStatus> root_producers;  ///< per leaf
  std::uint64_t cpu_ns = 0;             ///< process CPU
  TimeNs wall = 0;
};
TreeSnapshot ReadSnapshot(const Tree& tree);

/// Open the window: probe and tracer on, then the edge snapshot.
TreeSnapshot StartWindow(Tree& tree);
/// Close it: the edge snapshot, then probe and tracer off.
TreeSnapshot StopWindow(Tree& tree);

/// Total size of the sealed segment files (*.seg) in a store directory.
/// Rollup files are left out: their size follows how many wall-clock
/// minutes the data spans, not how many rows were stored.
std::uint64_t SegmentBytes(const std::string& dir);

/// Readback check of a collection run: every row at the root must be a
/// sample the sampler took, with the values the model gives; every sample in
/// (lo[n], hi[n]] must be there, once.
struct CollectCheck {
  std::uint64_t expected = 0;  ///< samples taken inside the window
  std::uint64_t missing = 0;
  std::uint64_t wrong = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t rows = 0;  ///< rows read back
  /// stored[n][seq]: how many rows at the root hold node n's sample seq.
  std::vector<std::vector<std::uint8_t>> stored;
};
CollectCheck CheckCollection(const Tree& tree,
                             const std::vector<std::uint64_t>& lo,
                             const std::vector<std::uint64_t>& hi);

/// After the window: let its samples reach the root, stop the tree, flush
/// the root store and run CheckCollection; failures go into @p result.
CollectCheck FinishCollection(Tree& tree, const TreeSnapshot& a,
                              const TreeSnapshot& b, RunResult* result);

/// The collection end-to-end metrics (data age, CPU per sample) and, for a
/// traced tree, the collection per-layer metrics.
void CollectionMetrics(const Tree& tree, const TreeSnapshot& a,
                       const TreeSnapshot& b, RunResult* result);

/// Check one query answer from the root store against the model. With
/// @p stored (data at rest), also require every stored row in range.
/// @p max_rows bounds how many rows are compared value by value.
std::uint64_t CheckNodeAnswer(const Tree& tree, const ldmsxx::TsdbQuery& q,
                              const ldmsxx::TsdbQueryResult& res,
                              const CollectCheck* stored,
                              std::size_t max_rows);

}  // namespace perfbench
