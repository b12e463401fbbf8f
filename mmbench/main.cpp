// mmbench driver: runs one workload and prints its metrics.
//
//   mmbench --workload <pipeline_d2|query_mix> --seed <n>
//           --seconds <s> --trace <0|1> --work-dir <dir>
//
// stdout ends with one JSON record: workload, seed, build type, nproc, the
// check tallies (correct / attempted / failed), every metric measured in
// this mode with its unit and sample count — the end-to-end metrics
// (--trace 0) or the per-layer ledger (--trace 1) — the output digests and
// extra figures.  run.py turns it into the result line BENCHMARK.json
// defines.  The exit code is 0 only when every output matched its
// reference and every benchmark gate held.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef MMBENCH_BUILD_TYPE
#define MMBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using mmbench::RunConfig;
using mmbench::RunResult;

void usage() {
  std::fprintf(stderr,
               "usage: mmbench --workload <pipeline_d2|query_mix> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\n");
}

bool parse(int argc, char** argv, RunConfig& cfg) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (!std::strcmp(arg, "--workload")) {
      cfg.workload = v;
    } else if (!std::strcmp(arg, "--seed")) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(arg, "--seconds")) {
      cfg.seconds = std::atoi(v);
    } else if (!std::strcmp(arg, "--trace")) {
      cfg.trace = std::atoi(v) != 0;
    } else if (!std::strcmp(arg, "--work-dir")) {
      cfg.work_dir = v;
    } else {
      return false;
    }
  }
  return !cfg.workload.empty() && !cfg.work_dir.empty() && cfg.seconds >= 1;
}

/// Full precision; JSON has no NaN or infinity, so those print as null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "mmbench: refusing to time an unoptimized build\n");
  return 2;
#endif
  if (std::strcmp(MMBENCH_BUILD_TYPE, "Debug") == 0) {
    std::fprintf(stderr, "mmbench: refusing to time a Debug build\n");
    return 2;
  }
  RunConfig cfg;
  if (!parse(argc, argv, cfg)) {
    usage();
    return 2;
  }
  RunResult result;
  try {
    std::filesystem::create_directories(cfg.work_dir);
    if (cfg.workload == "pipeline_d2") {
      result = mmbench::run_pipeline_d2(cfg);
    } else if (cfg.workload == "query_mix") {
      result = mmbench::run_query_mix(cfg);
    } else {
      std::fprintf(stderr, "mmbench: unknown workload %s\n",
                   cfg.workload.c_str());
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mmbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  bool finite = true;
  for (const auto& m : result.metrics)
    finite = finite && std::isfinite(m.value);
  const bool correct = result.attempted > 0 && result.failed == 0 &&
                       !result.gate_failed && finite;

  std::string out = "{\"workload\": " + json_string(cfg.workload) +
                    ", \"seed\": " + std::to_string(cfg.seed) +
                    ", \"seconds\": " + std::to_string(cfg.seconds) +
                    ", \"trace\": " + (cfg.trace ? "1" : "0") +
                    ", \"build_type\": " + json_string(MMBENCH_BUILD_TYPE) +
                    ", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"correct\": " + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(result.attempted) +
                    ", \"failed\": " + std::to_string(result.failed) +
                    ", \"metrics\": {";
  const char* sep = "";
  for (const auto& m : result.metrics) {
    out += sep + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
    sep = ", ";
  }
  out += "}, \"digests\": {";
  sep = "";
  for (const auto& [name, d] : result.digests) {
    out += sep + json_string(name) + ": " + json_string(d);
    sep = ", ";
  }
  out += "}, \"info\": {";
  sep = "";
  for (const auto& [name, v] : result.info) {
    out += sep + json_string(name) + ": " + json_number(v);
    sep = ", ";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
