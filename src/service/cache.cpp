#include "service/cache.h"

#include "cts/pipeline.h"
#include "netlist/io.h"

namespace contango {

Hash128 job_content_hash(const std::vector<Benchmark>& benchmarks,
                         const SuiteOptions& options) {
  Hasher h;
  // Version tag first: bumping it invalidates every old key when the
  // schema of this function changes.
  h.update_field("contango-job-v5");

  // Workload: benchmark_content_hash per benchmark — a streamed FNV-1a
  // over the canonical `.bench` bytes, never materializing the text (a
  // 1M-sink instance is ~70 MB of it).  A generated scenario, its
  // exported text file and its packed `.cbench` all hash identically, so
  // text and binary submissions of the same instance share cache entries.
  // The canonical text carries every domain, bound, sink domain and
  // window of a non-trivial constraint block at full precision.
  h.update_u64(benchmarks.size());
  for (const Benchmark& bench : benchmarks) {
    const Hash128 digest = benchmark_content_hash(bench);
    h.update_u64(digest.hi);
    h.update_u64(digest.lo);
  }

  // The pipeline that will actually run, with every pass parameter in it:
  // an empty spec resolves to the full default sequence, so "" and an
  // explicit "dme,repair,insert,polarity,..." share a key.  threads,
  // flow.incremental and the eval level-sweep threads are deliberately
  // absent: those execution modes are bit-identical by construction.
  h.update_field(resolved_pipeline_spec(options.flow));
  h.update_double(options.flow.eval.source_input_slew);

  // Monte-Carlo configuration.  The variation model and targets are inert
  // when trials == 0, so they only contribute then — a plain run and the
  // same run with unused MC sigmas share one entry.
  h.update_u64(static_cast<std::uint64_t>(options.mc_trials));
  if (options.mc_trials > 0) {
    h.update_double(options.variation.sigma_vdd);
    h.update_double(options.variation.sigma_wire_r);
    h.update_double(options.variation.sigma_wire_c);
    h.update_double(options.variation.sigma_sink_cap);
    h.update_u64(options.variation.seed);
    h.update_double(options.mc_skew_target);
  }
  return h.digest();
}

bool ResultCache::lookup(const Hash128& key, std::string* report_json) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key.hex());
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  *report_json = it->second;
  return true;
}

void ResultCache::store(const Hash128& key, const std::string& report_json) {
  if (max_entries_ == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  std::string hex = key.hex();
  if (entries_.count(hex)) return;  // first-wins
  while (entries_.size() >= max_entries_) {
    entries_.erase(order_.front());
    order_.pop_front();
  }
  entries_.emplace(hex, report_json);
  order_.push_back(std::move(hex));
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.entries = entries_.size();
  s.max_entries = max_entries_;
  return s;
}

}  // namespace contango
