// Shared helpers for the end-to-end benchmark: run options, the result
// record every workload fills, percentiles and CPU clocks.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "util/clock.hpp"

namespace perfbench {

using ldmsxx::DurationNs;
using ldmsxx::TimeNs;
using ldmsxx::kNsPerMs;
using ldmsxx::kNsPerSec;
using ldmsxx::kNsPerUs;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for stores and sockets (inside the checkout).
  std::string data_dir;
  /// Where the traced run writes its span file.
  std::string trace_dir;
};

/// One workload run: the end-to-end metrics (always), the per-layer metrics
/// (traced runs only), and the notes that make up the environment record.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Free-form facts printed beside the result: sample counts behind each
  /// percentile, generator lateness, CPU utilisation, the check tallies.
  std::map<std::string, double> notes;
  std::vector<std::string> errors;  ///< first few check failures, for stderr

  /// A wrong answer: @p n failed operations, and the run is not correct.
  void Fail(const std::string& what, std::uint64_t n = 1) {
    correct = false;
    Lost(what, n);
  }
  /// @p n operations that did not complete (a sample never stored, a shed
  /// sample): failures, but no wrong output.
  void Lost(const std::string& what, std::uint64_t n) {
    failed += n;
    if (errors.size() < 16) errors.push_back(what);
  }
};

inline TimeNs WallNs() { return ldmsxx::RealClock::Instance().Now(); }

inline std::uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * kNsPerSec +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// User + system CPU of the whole process.
inline std::uint64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * kNsPerSec +
           static_cast<std::uint64_t>(tv.tv_usec) * kNsPerUs;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/// Nearest-rank percentile (p in [0,1]); 0 for an empty sample.
template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t idx = k == 0 ? 0 : std::min(k - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return static_cast<double>(v[idx]);
}

inline double Median(std::vector<double> v) { return Percentile(v, 0.5); }

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// splitmix64 finaliser: the one hash every seeded choice goes through.
inline std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline std::uint64_t Mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0,
                         std::uint64_t d = 0) {
  return Mix(Mix(Mix(Mix(a) ^ b) ^ c) ^ d);
}

}  // namespace perfbench
