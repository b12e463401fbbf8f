// Parallel crawl-log extraction — the multi-threaded front half of the
// diag -> RRC -> ConfigDatabase pipeline.
//
// Decoding is embarrassingly parallel across logs (MobileInsight's offline
// replayer has the same shape): each worker replays one log into a private
// ConfigDatabase shard, then the shards are merged in input order
// (ConfigDatabase::merge_all, one carrier per job).  Per-log shards plus
// ordered merging make the result
// bit-identical to running serial extract_configs() over the same logs in
// the same order, whatever the thread count or scheduling.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmlab/core/extractor.hpp"
#include "mmlab/sim/crawl.hpp"

namespace mmlab::core {

/// One extraction job: a carrier-attributed view of raw diag bytes.  The
/// bytes must stay alive for the duration of the call.
struct LogView {
  std::string carrier;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// Aggregate statistics of one parallel extraction run.
struct ParallelExtractStats {
  ExtractStats totals;                 ///< sum over all logs
  std::vector<ExtractStats> per_log;   ///< index-aligned with the input
  unsigned threads = 0;                ///< worker threads actually used
  double extract_seconds = 0.0;        ///< wall time of the decode stage
  double merge_seconds = 0.0;          ///< wall time of the shard merge

  double wall_seconds() const { return extract_seconds + merge_seconds; }
  /// End-to-end decode throughput (0 when nothing was parsed).
  double records_per_second() const;
  double bytes_per_second() const;
};

/// Replay `logs` into `db` using up to `n_threads` workers (0 = one per
/// hardware thread).  Output is identical to calling extract_configs() on
/// each log in order.
ParallelExtractStats extract_configs_parallel(const std::vector<LogView>& logs,
                                              ConfigDatabase& db,
                                              unsigned n_threads = 0);

/// Convenience overload for the crawl engine's per-carrier log handoff.
ParallelExtractStats extract_configs_parallel(
    const std::vector<sim::CarrierLog>& logs, ConfigDatabase& db,
    unsigned n_threads = 0);

}  // namespace mmlab::core
