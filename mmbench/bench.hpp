// mmbench: end-to-end MMLab benchmark shared harness.
//
// The benchmark drives the library's public entry points from outside the
// program and measures them with std::chrono::steady_clock.  A workload is a
// fixed amount of work split into passes; the pass count is a function of
// --seconds only, never of how fast the machine is, so two builds always do
// identical work.  Every output is checked against a reference built at
// set-up by an independent code path (see oracle.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mmbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU time of the whole process (all threads).
double process_cpu_seconds();
/// Return the heap set-up freed to the kernel, so it does not sit in the
/// resident set the passes are measured against.
void trim_heap();
/// Reset the kernel's peak-RSS counter (VmHWM) to the current RSS.
void reset_peak_rss();
/// Peak resident set since the last reset, in MiB.
double peak_rss_mb();

/// Machine-wide CPU time stolen by the hypervisor so far, and all CPU
/// time, in clock ticks (/proc/stat); zeros where unavailable.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks machine_cpu_ticks();

/// Linear-interpolation quantile (type 7), q in [0, 1].  Requires samples.
double quantile(std::vector<double> xs, double q);
double median(const std::vector<double>& xs);

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for store files
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// What a workload hands back to main(): the metrics of the requested mode,
/// the check tallies, and the digests that must be identical run to run.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool gate_failed = false;  ///< a benchmark gate (not an output) failed
  std::vector<Metric> metrics;
  std::map<std::string, std::string> digests;
  std::map<std::string, double> info;  ///< extra figures, printed only

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Count one checked output; `ok` false counts it as failed.
  void check(bool ok, const std::string& what);
};

/// Per-pass record.  `stages` holds the span durations the traced run
/// records around each layer call; its values must sum to `wall_s` up to
/// the glue between calls (pass.unattributed_s).
struct PassRecord {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;  ///< whole pass, checks included
  std::vector<double> op_ms;
  std::map<std::string, double> stages;
  /// Other timings taken in every pass (traced or not), e.g. the full mix;
  /// not part of the stage sum.
  std::map<std::string, double> figures;
};

/// Spans recorded by the benchmark around each call into a layer.  When
/// disabled (untraced runs), stage() just calls through without reading
/// the clock.
class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  template <typename F>
  decltype(auto) stage(PassRecord& pass, const char* name, F&& fn) const {
    if (!enabled_) return fn();
    struct Span {
      PassRecord& pass;
      const char* name;
      Clock::time_point t0 = Clock::now();
      ~Span() { pass.stages[name] += seconds_between(t0, Clock::now()); }
    } span{pass, name};
    return fn();
  }

 private:
  bool enabled_;
};

/// Times one pass: wall and process CPU from construction to finish().
class PassTimer {
 public:
  PassTimer() : cpu0_(process_cpu_seconds()), t0_(Clock::now()) {}
  void finish(PassRecord& pass) const {
    pass.wall_s = seconds_between(t0_, Clock::now());
    pass.cpu_s = process_cpu_seconds() - cpu0_;
  }

 private:
  double cpu0_;
  Clock::time_point t0_;
};

/// Measured passes of one run.  Untraced runs fill `plain` only; a traced
/// run alternates plain and traced passes so the tracing overhead is
/// measured inside one process, on the same inputs.
struct PassSet {
  std::vector<PassRecord> plain;
  std::vector<PassRecord> traced;
  double steal_share = 0.0;  ///< hypervisor steal over the measured passes
};

/// Set-up runs per run: one before the passes, whose inputs the passes
/// use, and the rest spread evenly through the measured passes, so their
/// median samples the machine over the whole run as the pass medians do.
constexpr int kSetupRuns = 7;

/// Runs `setup` and appends its wall time to `setup_s`.  The result is
/// returned, so destroying it is not timed.
template <typename Setup>
auto timed_setup(Setup&& setup, std::vector<double>& setup_s) {
  const auto t0 = Clock::now();
  auto out = setup();
  setup_s.push_back(seconds_between(t0, Clock::now()));
  return out;
}

/// One discarded warm-up pass, then `count` measured passes.  `pass` runs
/// the fixed work of one pass, fills the record (wall, CPU, ops, stages)
/// and checks its outputs outside the timed region; the peak resident set
/// of each pass is recorded here.  `setup` repeats the workload's set-up
/// (kSetupRuns - 1 times, between passes; its result is discarded).
template <typename Pass, typename Setup>
PassSet run_passes(const RunConfig& cfg, int count, Pass&& pass,
                   Setup&& setup, std::vector<double>& setup_s) {
  const Ledger off(false);
  const Ledger on(true);
  trim_heap();
  PassRecord warm;
  pass(warm, off);
  PassSet set;
  const CpuTicks ticks0 = machine_cpu_ticks();
  int setups = 1;
  for (int i = 0; i < count; ++i) {
    const bool traced = cfg.trace && i % 2 == 1;
    PassRecord rec;
    reset_peak_rss();
    pass(rec, traced ? on : off);
    rec.peak_rss_mb = peak_rss_mb();
    (traced ? set.traced : set.plain).push_back(std::move(rec));
    while (setups < kSetupRuns &&
           (i + 1) * (kSetupRuns - 1) >= setups * count) {
      timed_setup(setup, setup_s);
      trim_heap();
      ++setups;
    }
  }
  const CpuTicks ticks1 = machine_cpu_ticks();
  if (ticks1.total > ticks0.total)
    set.steal_share = static_cast<double>(ticks1.steal - ticks0.steal) /
                      static_cast<double>(ticks1.total - ticks0.total);
  return set;
}

/// Median over passes of one stage's per-pass total (0 when never seen).
double stage_median(const std::vector<PassRecord>& passes,
                    const std::string& stage);

/// Median over passes of one figure (see PassRecord::figures).
double figure_median(const std::vector<PassRecord>& passes,
                     const std::string& figure);

/// The end-to-end metrics every workload reports (untraced runs):
/// setup_s, pass_s.p50, cpu_s.p50, op_ms.p50, mix_s.p50 (the passes'
/// "mix_s" figure), peak_rss_mb, store_bytes_per_row, success_rate.
/// op_ms.p90 is added to `info` where at least ten samples lie beyond it.
void add_end_to_end(RunResult& result, const std::vector<double>& setup_s,
                    const PassSet& set, double store_bytes_per_row);

/// pass.unattributed_s (median over passes of wall minus summed stages) and
/// its share of the pass; returns the share.
double add_unattributed(RunResult& result,
                        const std::vector<PassRecord>& passes);

/// pass.traced_s (median traced pass) and trace.overhead_s: its difference
/// from the median untraced pass of the same run.
void add_trace_overhead(RunResult& result, const PassSet& set);

/// Removes a scratch directory tree when it goes out of scope.
struct ScopedDir {
  std::string path;
  explicit ScopedDir(std::string p);
  ~ScopedDir();
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
};

/// Deterministic permutation of [0, n) drawn from `seed` (Fisher-Yates
/// over splitmix64, so it is the same on every platform and library).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/// One upload's diag bytes, as seen by the isolated layer probe.
struct UploadRef {
  const std::string* carrier = nullptr;
  const std::vector<std::uint8_t>* bytes = nullptr;
};

/// Isolated serial calls into the decode layers over the workload's own
/// uploads (traced runs only): diag::StreamParser fed in `chunk_bytes`
/// chunks, rrc::decode of every RRC record it yields, and
/// core::StreamExtractor over the same records (which decodes RRC itself).
/// Adds the diag.*, rrc.* and core.* metrics.
void probe_decode_layers(const std::vector<UploadRef>& uploads,
                         std::size_t chunk_bytes, RunResult& result);

// Workload entry points (one translation unit each).
RunResult run_pipeline_d2(const RunConfig& cfg);
RunResult run_query_mix(const RunConfig& cfg);

}  // namespace mmbench
