#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cts/suite.h"
#include "netlist/benchmark.h"
#include "util/hash.h"

namespace contango {

/// \file cache.h
/// \brief Content-addressed result cache of the service layer.
///
/// A job's suite report is fully determined by the benchmarks and the
/// result-affecting options (the flow is deterministic by construction —
/// see ROADMAP.md), so the daemon can key finished reports by a content
/// hash and answer repeat submissions without re-running synthesis.  The
/// cached bytes ARE the original report bytes, so a cache hit is
/// byte-identical to the fresh run that produced it — the CI service-smoke
/// job asserts exactly that with `cmp`.

/// \brief Stable 128-bit content key of a job: what it runs and every
/// option that can change the report bytes.
///
/// Covered: a version tag ("contango-job-v4"; bump it when the key schema
/// changes — the cache lives in memory, so no stored key goes stale), the
/// benchmark_content_hash of every benchmark — a streamed FNV-1a over the
/// canonical `.bench` bytes, so text and `.cbench` submissions of the
/// same instance share an entry without materializing the text (the
/// benchmark count is hashed first, so list boundaries are unambiguous) —
/// plus the decoded domains/windows/bounds of every non-trivial
/// constraint block, the resolved pipeline spec (every pass parameter
/// lives there), `flow.eval.source_input_slew`, and the Monte-Carlo
/// configuration (trial count; sigmas/seed/skew-target only when
/// trials > 0, since they are inert otherwise).
///
/// Deliberately NOT covered: `threads`, `flow.incremental` and
/// `flow.eval.threads` — those modes are bit-identical by construction
/// (the suite runner's contract), so two submissions differing only there
/// share one cache entry.
Hash128 job_content_hash(const std::vector<Benchmark>& benchmarks,
                         const SuiteOptions& options);

/// \brief Bounded, thread-safe map from job content hash to report bytes.
///
/// Eviction is FIFO by insertion order: suite reports are a few KB and the
/// daemon's working set is small, so recency tracking would buy little.
/// Insertion is first-wins — when two racing jobs with the same key finish
/// together, the first stored report stays, which keeps every hit for one
/// key byte-identical over the cache entry's lifetime.
class ResultCache {
 public:
  /// \param max_entries cap on stored reports; 0 disables caching entirely
  explicit ResultCache(std::size_t max_entries = 256)
      : max_entries_(max_entries) {}

  /// Counters of cache effectiveness, surfaced by the daemon's status
  /// endpoint.  hits/misses count lookup() calls only, so `hits + misses`
  /// is the total probe count.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t entries = 0;
    std::size_t max_entries = 0;
  };

  /// \brief Looks a report up by job key.
  /// \param key job_content_hash of the submission
  /// \param report_json out: the cached report bytes on a hit (untouched on
  ///        a miss)
  /// \return true on a hit
  bool lookup(const Hash128& key, std::string* report_json);

  /// \brief Stores a finished report under its job key (first-wins).
  ///
  /// Evicts the oldest entry when full.  No-op when `max_entries` is 0 or
  /// the key is already present.
  void store(const Hash128& key, const std::string& report_json);

  Stats stats() const;

 private:
  const std::size_t max_entries_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::string> entries_;  // hex key -> bytes
  std::deque<std::string> order_;  // insertion order of keys, for eviction
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace contango
