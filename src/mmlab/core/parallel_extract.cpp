#include "mmlab/core/parallel_extract.hpp"

#include <algorithm>
#include <chrono>

#include "mmlab/util/worker_pool.hpp"

namespace mmlab::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

double ParallelExtractStats::records_per_second() const {
  const double wall = wall_seconds();
  return wall > 0.0 ? static_cast<double>(totals.records) / wall : 0.0;
}

double ParallelExtractStats::bytes_per_second() const {
  const double wall = wall_seconds();
  return wall > 0.0 ? static_cast<double>(totals.bytes) / wall : 0.0;
}

ParallelExtractStats extract_configs_parallel(const std::vector<LogView>& logs,
                                              ConfigDatabase& db,
                                              unsigned n_threads) {
  ParallelExtractStats out;
  out.per_log.resize(logs.size());
  if (n_threads == 0) n_threads = WorkerPool::default_thread_count();
  out.threads = static_cast<unsigned>(
      std::min<std::size_t>(n_threads, std::max<std::size_t>(logs.size(), 1)));

  // Stage 1: decode every log into its own shard, one job per log.
  std::vector<ConfigDatabase> shards(logs.size());
  const auto extract_start = std::chrono::steady_clock::now();
  if (out.threads <= 1) {
    for (std::size_t i = 0; i < logs.size(); ++i)
      out.per_log[i] = extract_configs(logs[i].carrier, logs[i].data,
                                       logs[i].size, shards[i]);
  } else {
    // Largest logs first: the queue is FIFO, so this is longest-processing-
    // time scheduling.  Determinism is unaffected — each job writes only its
    // own shard slot and the merge below walks slots in input order.
    std::vector<std::size_t> order(logs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&logs](std::size_t a, std::size_t b) {
                       return logs[a].size > logs[b].size;
                     });
    WorkerPool pool(out.threads);
    for (std::size_t i : order)
      pool.submit([&logs, &shards, &out, i] {
        out.per_log[i] = extract_configs(logs[i].carrier, logs[i].data,
                                         logs[i].size, shards[i]);
      });
    pool.wait_idle();
  }
  out.extract_seconds = seconds_since(extract_start);

  // Stage 2: fold the shards in input order, one carrier per job — each
  // carrier's chain walks the shards in input order, so the result is the
  // serial merge chain's.
  const auto merge_start = std::chrono::steady_clock::now();
  db.merge_all(std::move(shards), out.threads);
  out.merge_seconds = seconds_since(merge_start);

  for (const auto& stats : out.per_log) out.totals += stats;
  return out;
}

ParallelExtractStats extract_configs_parallel(
    const std::vector<sim::CarrierLog>& logs, ConfigDatabase& db,
    unsigned n_threads) {
  std::vector<LogView> views;
  views.reserve(logs.size());
  for (const auto& log : logs)
    views.push_back({log.acronym, log.diag_log.data(), log.diag_log.size()});
  return extract_configs_parallel(views, db, n_threads);
}

}  // namespace mmlab::core
