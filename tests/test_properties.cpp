// Property-based suites: wire-protocol robustness under fuzzed/truncated
// input, ByteWriter/ByteReader round trips, tsdb time-range query counts,
// scheduler firing-count arithmetic, and MetricSet seqlock snapshot
// integrity under a concurrent writer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include "core/mem_manager.hpp"
#include "core/metric_set.hpp"
#include "core/wire.hpp"
#include "daemon/scheduler.hpp"
#include "daemon/topology.hpp"
#include "store/tsdb/tsdb_store.hpp"
#include "transport/message.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_THREAD__)
#define LDMSXX_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LDMSXX_TSAN_BUILD 1
#endif
#endif

namespace ldmsxx {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol robustness
// ---------------------------------------------------------------------------

class WireFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzzTest, RandomBytesNeverCrashDecoders) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t len = rng.NextBelow(512);
    std::vector<std::byte> junk(len);
    for (auto& b : junk) b = static_cast<std::byte>(rng.Next() & 0xff);

    // Every decoder must either parse or reject; never crash or overread.
    DirResponse dir;
    (void)DecodeDirResponse(junk, &dir);
    LookupRequest lreq;
    (void)DecodeLookupRequest(junk, &lreq);
    LookupResponse lresp;
    (void)DecodeLookupResponse(junk, &lresp);
    UpdateBatchRequest breq;
    (void)DecodeUpdateBatchRequest(junk, &breq);
    UpdateBatchResponse bresp;
    (void)DecodeUpdateBatchResponse(junk, &bresp);
    QueryRequest qreq;
    (void)DecodeQueryRequest(junk, &qreq);
    QueryResponse qresp;
    (void)DecodeQueryResponse(junk, &qresp);
    AdvertiseMsg adv;
    (void)DecodeAdvertise(junk, &adv);

    // Mirror construction from junk metadata must fail cleanly, not crash.
    MemManager mem(1 << 16);
    Status st;
    auto mirror = MetricSet::CreateMirror(mem, junk, &st);
    if (len < 16) {
      EXPECT_EQ(mirror, nullptr);
    }
    if (mirror == nullptr) {
      EXPECT_FALSE(st.ok());
      EXPECT_EQ(mem.bytes_in_use(), 0u);
    }
  }
}

// Every strict prefix of an encoded frame payload must be rejected by
// @p decode: no field is optional.
template <typename Msg, typename Decode>
void ExpectStrictPrefixesRejected(const std::vector<std::byte>& encoded,
                                  Decode decode) {
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    Msg partial;
    EXPECT_FALSE(
        decode(std::span<const std::byte>(encoded).subspan(0, cut), &partial))
        << "prefix of length " << cut << " of " << encoded.size()
        << " decoded";
  }
}

TEST_P(WireFuzzTest, StrictPrefixOfPullResponsesRejected) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  auto random_bytes = [&rng](std::size_t max) {
    std::vector<std::byte> bytes(1 + rng.NextBelow(max));
    for (auto& b : bytes) b = static_cast<std::byte>(rng.Next() & 0xff);
    return bytes;
  };

  LookupResponse lookup;
  lookup.metadata = random_bytes(256);
  lookup.version = kBatchProtocolVersion;
  lookup.handle = static_cast<std::uint32_t>(rng.Next());
  const auto lookup_wire = EncodeLookupResponse(lookup);
  LookupResponse lookup_out;
  ASSERT_TRUE(DecodeLookupResponse(lookup_wire, &lookup_out));
  EXPECT_EQ(lookup_out.metadata, lookup.metadata);
  EXPECT_EQ(lookup_out.handle, lookup.handle);
  ExpectStrictPrefixesRejected<LookupResponse>(lookup_wire,
                                               DecodeLookupResponse);

  // A batch answer mixing every payload-free and full-chunk entry kind.
  UpdateBatchResponse batch;
  const std::size_t entries = 1 + rng.NextBelow(6);
  for (std::size_t i = 0; i < entries; ++i) {
    UpdateBatchResponse::Entry e;
    e.handle = static_cast<std::uint32_t>(i);
    switch (rng.NextBelow(3)) {
      case 0:
        e.kind = BatchEntryKind::kUnchanged;
        break;
      case 1:
        e.kind = BatchEntryKind::kData;
        e.data = random_bytes(64);
        break;
      default:
        e.kind = BatchEntryKind::kError;
        e.code = static_cast<std::uint8_t>(ErrorCode::kNotFound);
        break;
    }
    batch.entries.push_back(std::move(e));
  }
  const auto batch_wire = EncodeUpdateBatchResponse(batch);
  UpdateBatchResponse batch_out;
  ASSERT_TRUE(DecodeUpdateBatchResponse(batch_wire, &batch_out));
  ASSERT_EQ(batch_out.entries.size(), entries);
  ExpectStrictPrefixesRejected<UpdateBatchResponse>(batch_wire,
                                                    DecodeUpdateBatchResponse);

  // The query fan-out frames have no optional field either.
  auto random_name = [&rng] {
    return std::string(rng.NextBelow(12),
                       static_cast<char>('a' + rng.NextBelow(26)));
  };

  QueryRequest req;
  req.strgp = random_name();
  req.table = random_name();
  req.t0 = rng.Next();
  req.t1 = rng.Next();
  for (std::size_t i = rng.NextBelow(5); i > 0; --i) {
    req.nodes.push_back(rng.Next());
  }
  for (std::size_t i = rng.NextBelow(4); i > 0; --i) {
    req.metrics.push_back(random_name());
  }
  req.limit = static_cast<std::uint32_t>(rng.Next());
  const auto req_wire = EncodeQueryRequest(req);
  QueryRequest req_out;
  ASSERT_TRUE(DecodeQueryRequest(req_wire, &req_out));
  EXPECT_EQ(req_out.nodes, req.nodes);
  EXPECT_EQ(req_out.metrics, req.metrics);
  EXPECT_EQ(req_out.limit, req.limit);
  ExpectStrictPrefixesRejected<QueryRequest>(req_wire, DecodeQueryRequest);

  QueryResponse resp;
  for (std::size_t i = rng.NextBelow(4); i > 0; --i) {
    resp.columns.push_back(random_name());
  }
  for (std::size_t i = rng.NextBelow(6); i > 0; --i) {
    TsdbQueryRow& row = resp.rows.emplace_back();
    row.ts = rng.Next();
    row.node = rng.Next();
    for (std::size_t c = 0; c < resp.columns.size(); ++c) {
      row.values.push_back(static_cast<double>(rng.Next()));
    }
  }
  resp.total_rows = resp.rows.size() + rng.NextBelow(100);
  resp.truncated = resp.total_rows > resp.rows.size() ? 1 : 0;
  resp.bytes_decoded = rng.Next();
  const auto resp_wire = EncodeQueryResponse(resp);
  QueryResponse resp_out;
  ASSERT_TRUE(DecodeQueryResponse(resp_wire, &resp_out));
  EXPECT_EQ(resp_out.rows.size(), resp.rows.size());
  EXPECT_EQ(resp_out.bytes_decoded, resp.bytes_decoded);
  ExpectStrictPrefixesRejected<QueryResponse>(resp_wire, DecodeQueryResponse);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Range(0, 8));

TEST(ByteRwTest, RandomSequenceRoundTrip) {
  Rng rng(3141);
  for (int trial = 0; trial < 200; ++trial) {
    // Generate a random op sequence, write it, read it back.
    enum Op { kU8, kU32, kU64, kStr, kD64 };
    std::vector<std::pair<Op, std::uint64_t>> ops;
    std::vector<std::string> strings;
    ByteWriter w;
    const std::size_t n = 1 + rng.NextBelow(40);
    for (std::size_t i = 0; i < n; ++i) {
      const Op op = static_cast<Op>(rng.NextBelow(5));
      const std::uint64_t v = rng.Next();
      ops.emplace_back(op, v);
      switch (op) {
        case kU8: w.U8(static_cast<std::uint8_t>(v)); break;
        case kU32: w.U32(static_cast<std::uint32_t>(v)); break;
        case kU64: w.U64(v); break;
        case kD64: w.D64(static_cast<double>(v) * 0.5); break;
        case kStr: {
          std::string s(v % 50, static_cast<char>('a' + v % 26));
          strings.push_back(s);
          w.Str(s);
          break;
        }
      }
    }
    ByteReader r(w.buffer());
    std::size_t str_idx = 0;
    for (const auto& [op, v] : ops) {
      switch (op) {
        case kU8: EXPECT_EQ(r.U8(), static_cast<std::uint8_t>(v)); break;
        case kU32: EXPECT_EQ(r.U32(), static_cast<std::uint32_t>(v)); break;
        case kU64: EXPECT_EQ(r.U64(), v); break;
        case kD64: EXPECT_DOUBLE_EQ(r.D64(), static_cast<double>(v) * 0.5); break;
        case kStr: EXPECT_EQ(r.Str(), strings[str_idx++]); break;
      }
    }
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
  }
}

// ---------------------------------------------------------------------------
// tsdb query counts
// ---------------------------------------------------------------------------

class TsdbQueryPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TsdbQueryPropertyTest, RowCountMatchesTimestampFilter) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ldmsxx_tsdbq_" + std::to_string(::getpid()) + "_" +
                    std::to_string(GetParam()));
  std::filesystem::remove_all(dir);

  MemManager mem(1 << 20);
  Schema schema("q");
  schema.AddMetric("v", MetricType::kU64);
  Status st;
  auto set = MetricSet::Create(mem, schema, "n/q", "n", 1, &st);
  ASSERT_TRUE(st.ok());

  TsdbOptions opts;
  opts.root_path = dir.string();
  opts.segment_rows = 1 + rng.NextBelow(32);  // sealed segments + active
  TsdbStore store(opts);
  // Strictly increasing but irregular timestamps, on microsecond ticks (the
  // set header's resolution).
  std::vector<TimeNs> stamps;
  TimeNs t = 0;
  const std::size_t records = 1 + rng.NextBelow(300);
  for (std::size_t i = 0; i < records; ++i) {
    t += (1 + rng.NextBelow(5 * kNsPerSec / kNsPerUs)) * kNsPerUs;
    stamps.push_back(t);
    set->BeginTransaction();
    set->SetU64(0, i);
    set->EndTransaction(t);
    ASSERT_TRUE(store.StoreSet(*set).ok());
  }

  for (int probe = 0; probe < 20; ++probe) {
    TsdbQuery q;
    q.table = "q";
    q.t0 = rng.NextBelow(t + kNsPerSec);
    q.t1 = rng.NextBelow(t + kNsPerSec);
    if (q.t0 > q.t1) std::swap(q.t0, q.t1);
    // Inclusive window; the set's own node, or one it never wrote.
    const std::uint64_t node_pick = rng.NextBelow(3);
    if (node_pick > 0) q.nodes = {node_pick};
    std::size_t expected = 0;
    for (TimeNs s : stamps) {
      if (s >= q.t0 && s <= q.t1 && node_pick != 2) ++expected;
    }
    TsdbQueryResult indexed, scanned;
    ASSERT_TRUE(store.Query(q, &indexed).ok());
    ASSERT_TRUE(store.QueryFullScan(q, &scanned).ok());
    EXPECT_EQ(indexed.rows.size(), expected)
        << "range [" << q.t0 << "," << q.t1 << "]";
    for (std::size_t i = 1; i < indexed.rows.size(); ++i) {
      EXPECT_LT(indexed.rows[i - 1].ts, indexed.rows[i].ts);
    }
    ASSERT_EQ(scanned.rows.size(), indexed.rows.size());
    for (std::size_t i = 0; i < indexed.rows.size(); ++i) {
      EXPECT_EQ(indexed.rows[i].ts, scanned.rows[i].ts);
      EXPECT_EQ(indexed.rows[i].node, scanned.rows[i].node);
      EXPECT_EQ(indexed.rows[i].values, scanned.rows[i].values);
    }
    if (probe == 9) {
      ASSERT_TRUE(store.Flush().ok());  // seal the tail too
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TsdbQueryPropertyTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Scheduler firing arithmetic
// ---------------------------------------------------------------------------

class SchedulerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerPropertyTest, FiringCountsExact) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 11);
  SimClock clock(0);
  TimerScheduler scheduler(clock, nullptr);
  struct Probe {
    DurationNs interval;
    int count = 0;
  };
  std::vector<std::unique_ptr<Probe>> probes;
  for (int i = 0; i < 12; ++i) {
    auto probe = std::make_unique<Probe>();
    probe->interval = (1 + rng.NextBelow(50)) * 100 * kNsPerMs;
    Probe* raw = probe.get();
    scheduler.Schedule([raw] { ++raw->count; },
                       {.interval = raw->interval});
    probes.push_back(std::move(probe));
  }
  const TimeNs horizon = (10 + rng.NextBelow(100)) * kNsPerSec;
  scheduler.RunUntil(clock, horizon);
  for (const auto& probe : probes) {
    // Async task scheduled at t=0 fires at k*interval, k >= 1.
    const int expected = static_cast<int>(horizon / probe->interval);
    EXPECT_EQ(probe->count, expected)
        << "interval " << probe->interval << " horizon " << horizon;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// MetricSet seqlock snapshot integrity
// ---------------------------------------------------------------------------

class SeqlockPropertyTest : public ::testing::TestWithParam<int> {};

// A snapshot that SnapshotData() reports as OK must be internally
// consistent: header flag set and no torn value area. The writer stamps the
// same sequence number into every metric per transaction, so any mix of two
// generations in one snapshot is detectable as unequal values.
TEST_P(SeqlockPropertyTest, SnapshotNeverTornButConsistentFlagged) {
#if defined(LDMSXX_TSAN_BUILD)
  // The seqlock read side intentionally memcpy's bytes a writer may be
  // mutating and relies on the gn/consistent re-check to discard torn
  // copies — the canonical seqlock pattern TSan cannot model. This very
  // test proves the re-check works; under TSan it would only produce
  // false-positive race reports.
  GTEST_SKIP() << "seqlock's by-design racy read is a TSan false positive";
#endif
  constexpr std::size_t kMetrics = 16;
  MemManager mem(1 << 20);
  Schema schema("torn");
  for (std::size_t i = 0; i < kMetrics; ++i) {
    schema.AddMetric("m" + std::to_string(i), MetricType::kU64);
  }
  Status st;
  auto set = MetricSet::Create(mem, schema, "n/torn", "n", 1, &st);
  ASSERT_TRUE(st.ok());
  // Publish one consistent generation before the reader starts.
  set->BeginTransaction();
  for (std::size_t i = 0; i < kMetrics; ++i) set->SetU64(i, 0);
  set->EndTransaction(1);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Randomized cadence: dwell inside some transactions (readers then see
    // the inconsistent window) and yield between others, from a fixed seed.
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 1);
    std::uint64_t seq = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      set->BeginTransaction();
      for (std::size_t i = 0; i < kMetrics; ++i) set->SetU64(i, seq);
      if (rng.NextBelow(4) == 0) {
        volatile std::uint64_t sink = 0;
        for (std::uint64_t spins = rng.NextBelow(2000); spins > 0; --spins) {
          sink += spins;
        }
      }
      set->EndTransaction(static_cast<TimeNs>(seq));
      ++seq;
      if (rng.NextBelow(8) == 0) std::this_thread::yield();
    }
  });

  std::vector<std::byte> snap(set->data_size());
  std::size_t ok_snapshots = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const Status s = set->SnapshotData(snap);
    if (!s.ok()) {
      // The only legitimate failure is a continuously-active writer.
      ASSERT_EQ(s.code(), ErrorCode::kInconsistent) << s.ToString();
      continue;
    }
    MetricSet::DataHeader hdr;
    std::memcpy(&hdr, snap.data(), sizeof hdr);
    ASSERT_EQ(hdr.magic, MetricSet::kDataMagic);
    ASSERT_NE(hdr.consistent, 0u) << "OK snapshot flagged inconsistent";
    const std::byte* values = snap.data() + sizeof(MetricSet::DataHeader);
    std::uint64_t first = 0;
    std::memcpy(&first, values + schema.metric(0).data_offset, sizeof first);
    for (std::size_t i = 1; i < kMetrics; ++i) {
      std::uint64_t v = 0;
      std::memcpy(&v, values + schema.metric(i).data_offset, sizeof v);
      ASSERT_EQ(v, first) << "torn snapshot: metric " << i << " from a "
                          << "different generation (trial " << trial << ")";
    }
    ++ok_snapshots;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  // Non-vacuous: the reader actually obtained consistent snapshots.
  EXPECT_GT(ok_snapshots, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqlockPropertyTest, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Rendezvous tree placement (daemon/topology.hpp)
// ---------------------------------------------------------------------------

class TreePlacementPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TreePlacementPropertyTest, StableBalancedMinimalMovement) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 104729 + 17;
  TreeOptions topts;
  topts.seed = seed;
  for (std::size_t i = 0; i < 1000; ++i) {
    topts.samplers.push_back({"node" + std::to_string(i), i});
  }
  const std::size_t leaves = 4 + static_cast<std::size_t>(GetParam()) % 5;
  for (std::size_t j = 0; j < leaves; ++j) {
    topts.leaves.push_back("leaf" + std::to_string(j));
  }
  TreeManager a(topts);
  TreeManager b(topts);

  // Stable: identical assignment from identical inputs; balanced: shard
  // sizes within 2x of each other at 1k samplers.
  std::size_t min_shard = topts.samplers.size();
  std::size_t max_shard = 0;
  std::size_t total = 0;
  for (std::size_t j = 0; j < leaves; ++j) {
    const auto shard = a.shard(j);
    EXPECT_EQ(shard, b.shard(j));
    min_shard = std::min(min_shard, shard.size());
    max_shard = std::max(max_shard, shard.size());
    total += shard.size();
  }
  EXPECT_EQ(total, topts.samplers.size());
  ASSERT_GT(min_shard, 0u);
  EXPECT_LE(max_shard, 2 * min_shard);

  // Removing any one leaf moves exactly that leaf's shard and nothing else;
  // rejoining restores the original assignment bit-for-bit.
  const std::size_t victim = seed % leaves;
  std::vector<std::size_t> before(topts.samplers.size());
  for (std::size_t i = 0; i < topts.samplers.size(); ++i) {
    before[i] = a.leaf_of(topts.samplers[i].name);
  }
  const auto moves = a.MarkLeafDown(victim, 0);
  EXPECT_EQ(moves.size(), b.shard(victim).size());
  for (const auto& m : moves) EXPECT_EQ(m.from_leaf, victim);
  for (std::size_t i = 0; i < topts.samplers.size(); ++i) {
    if (before[i] != victim) {
      EXPECT_EQ(a.leaf_of(topts.samplers[i].name), before[i]);
    } else {
      EXPECT_NE(a.leaf_of(topts.samplers[i].name), victim);
    }
  }
  (void)a.MarkLeafUp(victim, 0);
  for (std::size_t i = 0; i < topts.samplers.size(); ++i) {
    EXPECT_EQ(a.leaf_of(topts.samplers[i].name), before[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePlacementPropertyTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace ldmsxx
