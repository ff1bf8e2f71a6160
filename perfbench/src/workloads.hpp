// The three workloads (see README.md for why each exists).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "probes.hpp"

namespace perfbench {

/// collect / collect_query: N nodes through sampler -> 2 leaves -> root.
/// @param queries run the open-loop query client beside collection
RunResult RunCollect(const Options& opt, bool traced, bool queries,
                     double seconds, int setups);

/// history: queries over a 1M-row dataset sharded across 3 leaf stores.
RunResult RunHistory(const Options& opt, bool traced, double seconds,
                     int setups);

/// Per-layer metrics derived from a traced run's spans (self times included).
void SummarizeSpans(const std::vector<Span>& spans,
                    std::map<std::string, double>* layer);

/// Write the spans of a traced run to <trace_dir>/<workload>-seed<seed>.csv.
void WriteTrace(const Options& opt, const Tracer& tracer);

struct MetricDef {
  std::string name;
  std::string unit;
  bool higher_better = false;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& LayerMetrics();

}  // namespace perfbench
