// In-process mini cluster: N sampler daemons + M aggregators (plus an
// optional standby aggregator wired to a FailoverWatchdog) over a private
// in-process fabric, every connection routed through a seeded
// FaultInjectingTransport. All daemons share one SimClock and run with
// inline pools (worker/connection/store threads = 0), so Advance() is a
// deterministic global event loop: the same seed and the same sequence of
// harness calls replay the exact same interleaving of samples, collections,
// faults, and failovers. This is the substrate the chaos suite (and future
// robustness/scale PRs) test against.
//
// Tree mode (tree_leaves > 0) builds the paper's §IV-B multi-level daisy
// chain instead: samplers → K leaf aggregators → one root, with rendezvous
// shard placement (daemon/topology.hpp), watchdog-driven tree repair on
// leaf death, and per-level kill/restart addressing (KillSampler /
// KillAggregator(leaf) / KillRoot).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "daemon/failover.hpp"
#include "daemon/ldmsd.hpp"
#include "daemon/plugin_registry.hpp"
#include "daemon/topology.hpp"
#include "store/fault_store.hpp"
#include "store/memory_store.hpp"
#include "transport/fabric.hpp"
#include "transport/fault_transport.hpp"
#include "util/clock.hpp"

namespace ldmsxx::harness {

struct MiniClusterOptions {
  std::size_t samplers = 2;
  /// Primary aggregators; sampler i is collected by aggregator i % M.
  std::size_t aggregators = 1;
  /// Add a standby aggregator mirroring aggregator 0's producers (standby
  /// connections warm but idle until the watchdog fails over, §IV-B).
  bool standby = false;
  DurationNs sample_interval = 100 * kNsPerMs;
  DurationNs collect_interval = 100 * kNsPerMs;
  DurationNs reconnect_min_backoff = 10 * kNsPerMs;
  DurationNs reconnect_max_backoff = 400 * kNsPerMs;
  /// Per-request deadline on every producer connection; 0 = the transport
  /// default (kDefaultRequestTimeoutNs). Only waited out in real time by
  /// stalled fan-out queries.
  DurationNs request_timeout = 0;
  /// Seed for the fault schedule (and nothing else; daemon jitter streams
  /// are seeded from producer names).
  std::uint64_t seed = 1;
  /// Initial fault probabilities; all-zero = no faults until the test arms
  /// them via faults().
  FaultSchedule::Probabilities faults = {};
  /// Watchdog poll cadence and consecutive-failure threshold.
  DurationNs watchdog_interval = 250 * kNsPerMs;
  std::uint64_t failure_threshold = 2;
  /// Metrics per sampler set ("seq" plus padding, all written with the same
  /// sequence value so torn applies are detectable).
  std::size_t metrics_per_set = 8;
  /// Write only "seq" after the first sample (instead of the whole set).
  /// Steady-state transactions then dirty one metric, which is what lets the
  /// delta update path fire under chaos.
  bool sparse_writes = false;
  /// Sets each sampler daemon serves ("chaos", "chaos1", ...). More than one
  /// makes every collect cycle a genuine multi-entry batch, so mid-batch
  /// fault injection exercises whole-batch failure semantics.
  std::size_t sets_per_sampler = 1;
  /// Declare delta capability on every producer connection. Off forces the
  /// full-chunk path on the same fault schedule — the chaos suite compares
  /// both modes under the same seed to prove delta changes no outcomes.
  bool delta_updates = true;

  // --- storage path -------------------------------------------------------

  /// Initial disk-fault probabilities for every aggregator's primary store
  /// (one shared StoreFaultSchedule, seeded from `seed`, surviving
  /// restarts); all-zero = healthy until the test arms store_faults().
  StoreFaultSchedule::Probabilities store_faults = {};
  /// Bounded-queue + breaker knobs applied to each primary store policy.
  std::size_t store_queue_capacity = 1024;
  ShedPolicy store_shed = ShedPolicy::kDropOldest;
  std::uint64_t store_breaker_threshold = 5;
  DurationNs store_breaker_min_backoff = 100 * kNsPerMs;
  DurationNs store_breaker_max_backoff = 10 * kNsPerSec;
  /// Give each aggregator a second, fault-free "secondary" store policy so
  /// tests can assert a broken primary never affects its sibling.
  bool secondary_store = false;

  // --- tree topology (multi-level aggregation) ----------------------------

  /// When > 0, build a three-level tree instead of the flat topology:
  /// samplers → tree_leaves leaf aggregators → one root. Sampler shards are
  /// rendezvous-placed by a TreeManager (seeded from `seed` + node ids over
  /// the simulated torus); leaves re-serve their mirrors upward and the
  /// root pulls every leaf over the same fault transport and owns the
  /// stores, so DataGap/StoredRows measure end-to-end (two-hop) continuity.
  /// Leaf death is detected by the watchdog, which repairs the tree
  /// automatically (redistribute, or promote with tree_spare). The
  /// `aggregators` / `standby` options are ignored in tree mode.
  std::size_t tree_leaves = 0;
  /// Add a spare leaf holding warm standby producers for every sampler; a
  /// dead leaf's whole shard is promoted onto it (instead of being
  /// redistributed across the surviving leaves).
  bool tree_spare = false;
  /// Cadence at which the root re-dirs its leaf producers so re-served sets
  /// that appear after the first lookup (repair, restarts) are discovered;
  /// 0 = every collect_interval.
  DurationNs tree_rediscover = 0;

  // --- crash-safe registry (restart-resume, self-assembly) ----------------

  /// When non-empty, every aggregator (and the tree root) persists a
  /// cluster registry at <registry_dir>/<name>.registry and can be brought
  /// back from that file alone (RestartAggregatorFromRegistry /
  /// RestartRootFromRegistry). Store policies are recorded with the
  /// harness's "harness_store" plugin so a restored daemon re-binds the
  /// same persistent in-memory stores (history spans the restart).
  std::string registry_dir;
  /// Freshness snapshot cadence; 0 = eager + clean-shutdown saves only.
  DurationNs registry_snapshot_interval = 500 * kNsPerMs;
};

class MiniCluster {
 public:
  explicit MiniCluster(const MiniClusterOptions& options);
  ~MiniCluster();

  MiniCluster(const MiniCluster&) = delete;
  MiniCluster& operator=(const MiniCluster&) = delete;

  // --- topology -----------------------------------------------------------

  std::size_t sampler_count() const { return samplers_.size(); }
  std::size_t aggregator_count() const { return aggregators_.size(); }
  /// Name a sampler daemon announces its sets under ("node<i>").
  std::string sampler_name(std::size_t i) const;
  Ldmsd& sampler(std::size_t i) { return *samplers_.at(i).daemon; }
  Ldmsd& aggregator(std::size_t i) { return *aggregators_.at(i).daemon; }
  /// The standby aggregator, or nullptr when not configured.
  Ldmsd* standby();
  std::shared_ptr<MemoryStore> store(std::size_t aggregator_index) {
    return aggregators_.at(aggregator_index).store;
  }
  std::shared_ptr<MemoryStore> standby_store();
  /// The fault-free sibling store, or nullptr unless secondary_store is set.
  std::shared_ptr<MemoryStore> secondary(std::size_t aggregator_index) {
    return aggregators_.at(aggregator_index).secondary;
  }

  // --- tree topology ------------------------------------------------------

  /// The placement/repair manager, or nullptr in flat mode.
  TreeManager* tree() { return tree_.get(); }
  /// Leaf aggregator j (tree mode); the spare is index tree_leaves.
  Ldmsd& leaf(std::size_t j) { return *aggregators_.at(j).daemon; }
  /// The root aggregator (tree mode).
  Ldmsd& root() { return *root_.daemon; }
  bool root_alive() const { return root_.daemon != nullptr; }
  std::shared_ptr<MemoryStore> root_store() { return root_.store; }
  std::string leaf_name(std::size_t j) const;

  SimClock& clock() { return clock_; }
  FaultSchedule& faults() { return *schedule_; }
  /// Disk-fault schedule shared by every aggregator's primary store.
  StoreFaultSchedule& store_faults() { return *store_schedule_; }
  FailoverWatchdog& watchdog() { return watchdog_; }

  bool sampler_alive(std::size_t i) const {
    return samplers_.at(i).daemon != nullptr;
  }
  bool aggregator_alive(std::size_t i) const {
    return aggregators_.at(i).daemon != nullptr;
  }

  // --- deterministic drive ------------------------------------------------

  /// Advance simulated time by @p delta, firing every daemon scheduler
  /// deadline and watchdog poll in global timestamp order (ties broken by
  /// watchdog first, then daemon creation order). Fully deterministic.
  void Advance(DurationNs delta);

  // --- chaos helpers ------------------------------------------------------

  /// Tear a daemon down (its listener vanishes; peers see kDisconnected).
  void KillSampler(std::size_t i);
  void KillAggregator(std::size_t i);
  void KillRoot();
  /// Bring a previously killed daemon back with the same name, address, and
  /// plugin/producer wiring. Aggregators keep their MemoryStore, so stored
  /// history spans the restart. In tree mode a restarted leaf reclaims its
  /// rendezvous shard (interim owners are deactivated) and the root is
  /// nudged to re-discover it.
  void RestartSampler(std::size_t i);
  /// Restart sampler @p i with a different metric count: the schema (and
  /// meta generation) change, so every downstream mirror must be dropped
  /// and re-looked-up — the relookup-vs-upward-batch regression path.
  void RestartSampler(std::size_t i, std::size_t metrics_per_set);
  void RestartAggregator(std::size_t i);
  void RestartRoot();

  // --- registry restart-resume & self-assembly ----------------------------

  /// Bring a killed flat-mode aggregator back from its registry file ALONE:
  /// the new daemon gets no producers or store policies from the harness —
  /// RestoreFromRegistry reconstitutes both, re-binding the slot's
  /// persistent stores through the harness plugin factory. Requires
  /// registry_dir; tree leaves are out of scope (use RestartAggregator).
  Status RestartAggregatorFromRegistry(std::size_t i);
  /// Same for the tree-mode root. The restored daemon owns its TreeManager
  /// (rebuilt from the persisted tree record); assert on root().tree().
  Status RestartRootFromRegistry();
  /// Self-assembly (tree mode): start a brand-new sampler daemon (index =
  /// sampler_count()) and have it announce to the root, which places it via
  /// TreeManager::AddSampler, persists the assignment, and — through the
  /// harness announce hook — wires a collecting producer onto the owning
  /// leaf daemon. Returns the new sampler's index through @p index_out
  /// (may be null).
  Status AddAnnouncedSampler(std::size_t* index_out = nullptr);

  // --- assertions ---------------------------------------------------------

  struct GapReport {
    /// Unique stored sample timestamps observed for the producer.
    std::size_t rows = 0;
    /// Largest spacing between consecutive stored samples.
    DurationNs max_gap = 0;
  };
  /// Per-set data-gap bound for sampler @p i, measured over the union of all
  /// aggregator stores (primary + standby, deduplicated by timestamp).
  GapReport DataGap(std::size_t i) const;

  /// Total "chaos"-schema rows across every store.
  std::size_t StoredRows() const;

 private:
  struct SamplerSlot {
    std::unique_ptr<Ldmsd> daemon;
    /// Metric count override (schema-change restarts); 0 = options value.
    std::size_t metrics = 0;
  };
  struct AggregatorSlot {
    std::unique_ptr<Ldmsd> daemon;
    std::shared_ptr<MemoryStore> store;
    /// Fault decorator around `store`; created once so injected-failure
    /// accounting spans aggregator restarts.
    std::shared_ptr<FaultInjectingStore> faulted;
    /// Fault-free sibling policy's store (secondary_store option).
    std::shared_ptr<MemoryStore> secondary;
    bool is_standby = false;
  };

  std::string SamplerAddress(std::size_t i) const;
  std::string LeafAddress(std::size_t j) const;
  /// Slot name used for daemon names, registry files, and store-factory
  /// params ("agg<j>"/"standby" flat, leaf_name(j) in tree mode).
  std::string AggregatorName(std::size_t index) const;
  /// <registry_dir>/<name>.registry, or "" when registries are disabled.
  std::string RegistryPathFor(const std::string& name) const;
  /// Wire a just-announced sampler onto its assigned leaf (announce hook).
  void OnAnnounce(const AdvertiseMsg& msg, std::size_t leaf);
  std::unique_ptr<Ldmsd> MakeSampler(std::size_t i);
  std::unique_ptr<Ldmsd> MakeAggregator(std::size_t index, bool is_standby);
  /// Samplers assigned to primary aggregator @p index (i % M == index);
  /// the standby mirrors aggregator 0's assignment.
  std::vector<std::size_t> AssignedSamplers(std::size_t index,
                                            bool is_standby) const;

  // --- tree topology internals --------------------------------------------

  std::unique_ptr<Ldmsd> MakeLeaf(std::size_t j);
  std::unique_ptr<Ldmsd> MakeRoot();
  Ldmsd* LeafDaemon(std::size_t j);
  /// Add a (possibly standby) producer for sampler @p i on a leaf daemon.
  void AddSamplerProducer(Ldmsd& daemon, std::size_t i, bool standby,
                          const std::string& standby_for);
  /// Add the root's dir-discovery producer for leaf index @p j.
  void AddRootProducer(Ldmsd& daemon, std::size_t j);
  /// Watchdog-triggered tree repair: reassign the dead leaf's shard
  /// (standby promotion or redistribution) and refresh the root's view.
  void RepairLeaf(std::size_t j);

  MiniClusterOptions options_;
  SimClock clock_{0};
  // Declared before the daemons so endpoints/listeners die first.
  Fabric fabric_;
  std::shared_ptr<FaultSchedule> schedule_;
  std::shared_ptr<StoreFaultSchedule> store_schedule_;
  TransportRegistry registry_;
  /// Private store-factory registry ("harness_store"): resolves persistent
  /// per-slot stores by name, so registry-restored daemons keep history.
  PluginRegistry plugins_;
  FailoverWatchdog watchdog_;
  TimeNs next_watchdog_poll_ = 0;

  std::vector<SamplerSlot> samplers_;
  /// Flat mode: primary aggregators, standby last. Tree mode: leaves, spare
  /// last when tree_spare.
  std::vector<AggregatorSlot> aggregators_;
  /// Tree mode only: the placement manager and the root aggregator (which
  /// owns the stores in tree mode).
  std::unique_ptr<TreeManager> tree_;
  AggregatorSlot root_;
};

}  // namespace ldmsxx::harness
