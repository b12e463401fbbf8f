#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace mmbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void trim_heap() { malloc_trim(0); }

void reset_peak_rss() {
  // "5" resets VmHWM to the current RSS (Linux >= 4.0).  Without it the
  // peak includes everything before; peak_rss_mb() still reads a number.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

CpuTicks machine_cpu_ticks() {
  // First line: cpu user nice system idle iowait irq softirq steal ...
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) return {};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::logic_error("quantile of no samples");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "mmbench: MISMATCH: %s\n", what.c_str());
  }
}

double stage_median(const std::vector<PassRecord>& passes,
                    const std::string& stage) {
  std::vector<double> xs;
  for (const auto& p : passes) {
    const auto it = p.stages.find(stage);
    xs.push_back(it == p.stages.end() ? 0.0 : it->second);
  }
  return xs.empty() ? 0.0 : median(xs);
}

double figure_median(const std::vector<PassRecord>& passes,
                     const std::string& figure) {
  std::vector<double> xs;
  for (const auto& p : passes) {
    const auto it = p.figures.find(figure);
    if (it != p.figures.end()) xs.push_back(it->second);
  }
  return xs.empty() ? 0.0 : median(xs);
}

void add_end_to_end(RunResult& result, const std::vector<double>& setup_s,
                    const PassSet& set, double store_bytes_per_row) {
  std::vector<double> wall, cpu, rss, ops;
  for (const auto& p : set.plain) {
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    rss.push_back(p.peak_rss_mb);
    ops.insert(ops.end(), p.op_ms.begin(), p.op_ms.end());
  }
  result.add("setup_s", median(setup_s), "s", setup_s.size());
  result.info["setup_s.min"] = quantile(setup_s, 0.0);
  result.info["setup_s.max"] = quantile(setup_s, 1.0);
  result.add("pass_s.p50", median(wall), "s", wall.size());
  result.add("cpu_s.p50", median(cpu), "s", cpu.size());
  result.add("op_ms.p50", median(ops), "ms", ops.size());
  result.add("mix_s.p50", figure_median(set.plain, "mix_s"), "s",
             set.plain.size());
  result.add("peak_rss_mb", median(rss), "MiB", rss.size());
  result.info["peak_rss_mb.max"] = quantile(rss, 1.0);
  result.add("store_bytes_per_row", store_bytes_per_row, "B/row");
  const double ok =
      result.attempted == 0
          ? 0.0
          : static_cast<double>(result.attempted - result.failed) /
                static_cast<double>(result.attempted);
  result.add("success_rate", ok, "ratio", result.attempted);
  // A p90 needs at least ten samples beyond it.
  if (ops.size() >= 100) result.info["op_ms.p90"] = quantile(ops, 0.9);
  result.info["op_samples"] = static_cast<double>(ops.size());
  result.info["steal_share"] = set.steal_share;
}

double add_unattributed(RunResult& result,
                        const std::vector<PassRecord>& passes) {
  std::vector<double> gap, share;
  for (const auto& p : passes) {
    double staged = 0.0;
    for (const auto& [name, s] : p.stages) staged += s;
    gap.push_back(p.wall_s - staged);
    share.push_back((p.wall_s - staged) / p.wall_s);
  }
  result.add("pass.unattributed_s", median(gap), "s", gap.size());
  const double worst = *std::max_element(share.begin(), share.end());
  result.info["pass.unattributed_share_max"] = worst;
  return worst;
}

void add_trace_overhead(RunResult& result, const PassSet& set) {
  std::vector<double> plain, traced;
  for (const auto& p : set.plain) plain.push_back(p.wall_s);
  for (const auto& p : set.traced) traced.push_back(p.wall_s);
  result.add("pass.traced_s", median(traced), "s", traced.size());
  result.add("trace.overhead_s", median(traced) - median(plain), "s",
             traced.size());
  result.info["steal_share"] = set.steal_share;
}

ScopedDir::ScopedDir(std::string p) : path(std::move(p)) {
  std::filesystem::remove_all(path);
}

ScopedDir::~ScopedDir() {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace mmbench
