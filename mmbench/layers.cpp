#include <algorithm>

#include "bench.hpp"
#include "mmlab/core/extractor.hpp"
#include "mmlab/diag/stream_parser.hpp"
#include "mmlab/rrc/codec.hpp"

namespace mmbench {

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  auto next = [&state] {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[next() % i]);
  return order;
}

void probe_decode_layers(const std::vector<UploadRef>& uploads,
                         std::size_t chunk_bytes, RunResult& result) {
  namespace diag = mmlab::diag;
  std::vector<std::vector<diag::Record>> records(uploads.size());

  // diag: framing only.
  std::size_t n_records = 0, malformed = 0;
  auto t0 = Clock::now();
  for (std::size_t u = 0; u < uploads.size(); ++u) {
    const auto& bytes = *uploads[u].bytes;
    diag::StreamParser parser;
    for (std::size_t off = 0; off < bytes.size(); off += chunk_bytes)
      parser.feed(bytes.data() + off,
                  std::min(chunk_bytes, bytes.size() - off));
    parser.finish();
    diag::Record rec;
    while (parser.next(rec)) records[u].push_back(std::move(rec));
    n_records += parser.stats().records;
    malformed += parser.stats().malformed + parser.stats().crc_failures;
  }
  result.add("diag.parse_s", seconds_between(t0, Clock::now()), "s");
  result.add("diag.records", static_cast<double>(n_records), "count");
  result.add("diag.malformed", static_cast<double>(malformed), "count");

  // rrc: every RRC payload the framing yielded.
  std::size_t messages = 0, errors = 0;
  t0 = Clock::now();
  for (const auto& recs : records)
    for (const auto& rec : recs) {
      if (rec.code != diag::LogCode::kLteRrcOta &&
          rec.code != diag::LogCode::kLegacyRrcOta)
        continue;
      if (mmlab::rrc::decode(rec.payload))
        ++messages;
      else
        ++errors;
    }
  result.add("rrc.decode_s", seconds_between(t0, Clock::now()), "s");
  result.add("rrc.messages", static_cast<double>(messages), "count");
  result.add("rrc.errors", static_cast<double>(errors), "count");

  // core: configuration extraction over the same records.
  std::size_t snapshots = 0;
  t0 = Clock::now();
  for (std::size_t u = 0; u < uploads.size(); ++u) {
    mmlab::core::ConfigDatabase shard;
    mmlab::core::StreamExtractor extractor(*uploads[u].carrier, shard);
    for (const auto& rec : records[u]) extractor.on_record(rec);
    extractor.finish();
    snapshots += extractor.stats().snapshots;
  }
  result.add("core.extract_s", seconds_between(t0, Clock::now()), "s");
  result.add("core.snapshots", static_cast<double>(snapshots), "count");
}

}  // namespace mmbench
