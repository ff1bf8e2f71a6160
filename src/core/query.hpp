// One query shape from the segment scan to the reply: the tsdb store fills a
// TsdbQueryResult, the kQueryReq/kQueryResp frames extend these types with
// their routing and paging fields, and the `query` verb formats the same
// rows. Lives in core because the transport layer sits below the store.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/clock.hpp"

namespace ldmsxx {

/// A time-range × node-set × metric query; the window is inclusive.
struct TsdbQuery {
  std::string table;
  TimeNs t0 = 0;
  TimeNs t1 = ~TimeNs{0};
  std::vector<std::uint64_t> nodes;   ///< empty = all nodes
  std::vector<std::string> metrics;   ///< empty = all columns
};

struct TsdbQueryRow {
  TimeNs ts = 0;
  std::uint64_t node = 0;
  std::vector<double> values;  ///< one per result column
};

struct TsdbQueryResult {
  std::vector<std::string> columns;
  std::vector<TsdbQueryRow> rows;
  /// Index effectiveness: sealed segments considered, pruned by the footer
  /// index without touching the body, and actually read.
  std::uint64_t segments_considered = 0;
  std::uint64_t segments_pruned = 0;
  std::uint64_t segments_read = 0;
  /// Encoded column bytes fetched from disk (0 for the active in-memory
  /// segment). With compressed segments this is the on-disk cost...
  std::uint64_t bytes_read = 0;
  /// ...and this is the uncompressed slot bytes those reads decoded into;
  /// bytes_decoded / bytes_read is the effective compression ratio the
  /// query enjoyed (equal when every column was raw).
  std::uint64_t bytes_decoded = 0;
};

}  // namespace ldmsxx
