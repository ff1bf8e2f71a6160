// perfbench: the ldmsxx end-to-end benchmark driver.
//
//   perfbench --workload collect|collect_query|history --seed N --seconds S
//             --trace 0|1 --data-dir DIR [--trace-dir DIR]
//   perfbench --catalog
//
// Untraced runs (--trace 0) set the pipeline up three times (setup_s is the
// median), measure for S seconds and print every end-to-end metric. Traced
// runs (--trace 1) measure S/2 seconds untraced, then S/2 seconds on a fresh
// pipeline with the tracing decorators in place, and print every per-layer
// metric plus overhead.<metric> = traced minus untraced. The last line of
// stdout is the result object; the line before it is the environment record.
#include <sys/statfs.h>

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FsType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlay";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += Quote(k) + ": " + Number(v);
  }
  return out + "}";
}

void PrintCatalog() {
  auto list = [](const std::vector<MetricDef>& defs) {
    std::string out = "[";
    for (const MetricDef& d : defs) {
      if (out.size() > 1) out += ", ";
      out += "{\"name\": " + Quote(d.name) + ", \"unit\": " + Quote(d.unit) +
             ", \"better\": \"" + (d.higher_better ? "higher" : "lower") +
             "\"}";
    }
    return out + "]";
  };
  std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
              list(EndToEndMetrics()).c_str(), list(LayerMetrics()).c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload collect|collect_query|history "
               "--seed N --seconds S --trace 0|1 --data-dir DIR "
               "[--trace-dir DIR] | --catalog\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--catalog") {
      PrintCatalog();
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--data-dir") {
      opt.data_dir = val;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = val;
    } else {
      return Usage();
    }
  }
  if ((opt.workload != "collect" && opt.workload != "collect_query" &&
       opt.workload != "history") ||
      opt.data_dir.empty() || !(opt.seconds > 0)) {
    return Usage();
  }

  std::error_code ec;
  std::filesystem::create_directories(opt.data_dir, ec);
  auto run = [&](bool traced, double seconds, int setups) {
    Options o = opt;
    o.data_dir = opt.data_dir + (traced ? "/traced" : "/untraced");
    if (o.workload == "history") return RunHistory(o, traced, seconds, setups);
    return RunCollect(o, traced, o.workload == "collect_query", seconds,
                      setups);
  };

  RunResult result;
  std::map<std::string, double> metrics;
  if (!opt.trace) {
    result = run(false, opt.seconds, 3);
    for (const MetricDef& d : EndToEndMetrics()) metrics[d.name] = result.e2e[d.name];
  } else {
    RunResult plain = run(false, opt.seconds / 2, 1);
    if (plain.correct) result = run(true, opt.seconds / 2, 1);
    for (const MetricDef& d : EndToEndMetrics()) {
      result.layer["overhead." + d.name] = result.e2e[d.name] - plain.e2e[d.name];
    }
    result.correct = result.correct && plain.correct;
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    result.errors.insert(result.errors.end(), plain.errors.begin(),
                         plain.errors.end());
    result.layer["failed_ratio"] =
        Ratio(static_cast<double>(result.failed),
              static_cast<double>(result.attempted));
    for (const MetricDef& d : LayerMetrics()) metrics[d.name] = result.layer[d.name];
  }
  if (result.attempted == 0) result.correct = false;
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }

  std::map<std::string, std::string> env = {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", CpuModel()},
      {"store_fs", FsType(opt.data_dir)},
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"seconds", Number(opt.seconds)},
      {"trace", opt.trace ? "1" : "0"}};
  std::string env_json = "{";
  for (const auto& [k, v] : env) {
    if (env_json.size() > 1) env_json += ", ";
    env_json += Quote(k) + ": " + Quote(v);
  }
  env_json += "}";
  std::printf("{\"env\": %s, \"notes\": %s}\n", env_json.c_str(),
              Object(result.notes).c_str());

  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  bool first = true;
  const auto& defs = opt.trace ? LayerMetrics() : EndToEndMetrics();
  for (const MetricDef& d : defs) {
    if (!first) out += ", ";
    first = false;
    out += Quote(d.name) + ": {\"value\": " + Number(metrics[d.name]) +
           ", \"unit\": " + Quote(d.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  // Every pipeline is stopped (see Retire); their memory goes with the
  // process instead of through thousands of individual frees.
  std::_Exit(result.correct ? 0 : 1);
}
