// Storage plugin tests: CSV (row shape, separate header), flat file (one
// file per metric), memory store. The queryable store (store_tsdb, which
// also serves store_sos) is tested in test_query.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "core/mem_manager.hpp"
#include "core/metric_set.hpp"
#include "store/csv_store.hpp"
#include "store/flatfile_store.hpp"
#include "store/memory_store.hpp"

namespace ldmsxx {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ldmsxx_store_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);

    Schema schema("memtest");
    schema.AddMetric("Active", MetricType::kU64);
    schema.AddMetric("Free", MetricType::kU64);
    schema.AddMetric("load", MetricType::kD64);
    Status st;
    set_ = MetricSet::Create(mem_, schema, "nid1/memtest", "nid1", 11, &st);
    ASSERT_TRUE(st.ok());
  }

  void TearDown() override { fs::remove_all(dir_); }

  void WriteSample(std::uint64_t active, std::uint64_t free, double load,
                   TimeNs ts) {
    set_->BeginTransaction();
    set_->SetU64(0, active);
    set_->SetU64(1, free);
    set_->SetD64(2, load);
    set_->EndTransaction(ts);
  }

  MemManager mem_{1 << 20};
  MetricSetPtr set_;
  fs::path dir_;
};

TEST_F(StoreTest, CsvStoreRowShape) {
  CsvStore store({dir_.string(), /*header_in_separate_file=*/false});
  WriteSample(100, 200, 1.5, 3 * kNsPerSec + 500000 * kNsPerUs);
  ASSERT_TRUE(store.StoreSet(*set_).ok());
  WriteSample(101, 199, 1.6, 4 * kNsPerSec);
  ASSERT_TRUE(store.StoreSet(*set_).ok());
  ASSERT_TRUE(store.Flush().ok());

  auto rows = ReadCsvFile(store.FilePath("memtest"));
  ASSERT_EQ(rows.size(), 3u);  // header + 2 samples
  EXPECT_EQ(rows[0][0], "#Time");
  EXPECT_EQ(rows[0][1], "ProducerName");
  EXPECT_EQ(rows[0][2], "component_id");
  EXPECT_EQ(rows[0][3], "Active");
  EXPECT_EQ(rows[1][0], "3.500000");
  EXPECT_EQ(rows[1][1], "nid1");
  EXPECT_EQ(rows[1][2], "11");
  EXPECT_EQ(rows[1][3], "100");
  EXPECT_EQ(rows[2][3], "101");
  EXPECT_EQ(store.rows_written(), 2u);
  EXPECT_GT(store.bytes_written(), 0u);
}

TEST_F(StoreTest, CsvStoreSeparateHeader) {
  CsvStore store({dir_.string(), /*header_in_separate_file=*/true});
  WriteSample(1, 2, 0.5, kNsPerSec);
  ASSERT_TRUE(store.StoreSet(*set_).ok());
  ASSERT_TRUE(store.Flush().ok());
  auto data_rows = ReadCsvFile(store.FilePath("memtest"));
  auto header_rows = ReadCsvFile(store.FilePath("memtest") + ".HEADER");
  ASSERT_EQ(data_rows.size(), 1u);
  EXPECT_EQ(data_rows[0][1], "nid1");  // no header line in the data file
  ASSERT_EQ(header_rows.size(), 1u);
  EXPECT_EQ(header_rows[0][0], "#Time");
}

TEST_F(StoreTest, FlatFileStoreOneFilePerMetric) {
  FlatFileStore store({dir_.string()});
  WriteSample(100, 200, 1.5, 2 * kNsPerSec);
  ASSERT_TRUE(store.StoreSet(*set_).ok());
  WriteSample(110, 190, 1.7, 3 * kNsPerSec);
  ASSERT_TRUE(store.StoreSet(*set_).ok());
  ASSERT_TRUE(store.Flush().ok());

  for (const char* metric : {"Active", "Free", "load"}) {
    std::ifstream in(store.FilePath(metric));
    ASSERT_TRUE(in.good()) << metric;
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) ++lines;
    EXPECT_EQ(lines, 2) << metric;
  }
  std::ifstream in(store.FilePath("Active"));
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "2.000000 11 100");
}

TEST_F(StoreTest, MemoryStoreRowsAndSchemas) {
  MemoryStore store;
  WriteSample(7, 8, 0.25, 5 * kNsPerSec);
  ASSERT_TRUE(store.StoreSet(*set_).ok());
  ASSERT_EQ(store.RowCount("memtest"), 1u);
  auto rows = store.Rows("memtest");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].timestamp, 5 * kNsPerSec);
  EXPECT_EQ(rows[0].component_id, 11u);
  EXPECT_EQ(rows[0].producer, "nid1");
  ASSERT_EQ(rows[0].values.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].values[0], 7.0);
  EXPECT_DOUBLE_EQ(rows[0].values[2], 0.25);
  auto names = store.MetricNames("memtest");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[2], "load");
  EXPECT_EQ(store.Schemas(), std::vector<std::string>{"memtest"});
  store.Clear();
  EXPECT_EQ(store.RowCount("memtest"), 0u);
}

}  // namespace
}  // namespace ldmsxx
