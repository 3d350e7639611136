// Microbenchmarks (google-benchmark) of the core algorithmic kernels:
// DME construction, van Ginneken insertion, staged extraction, one full
// transient evaluation across benchmark sizes, the transient kernel
// alone over recorded stage shapes and drives, and the `.bench` text
// codec (write, read, content hash) on the 5000-sink TI chip.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/evaluate.h"
#include "analysis/transient.h"
#include "cts/dme.h"
#include "cts/vanginneken.h"
#include "cts/flow.h"
#include "netlist/generators.h"
#include "netlist/io.h"
#include "rctree/extract.h"

using namespace contango;

static void BM_BuildZst(benchmark::State& state) {
  const Benchmark bench = generate_ti_like(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ClockTree tree = build_zst(bench);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildZst)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

static void BM_InsertBuffers(benchmark::State& state) {
  const Benchmark bench = generate_ti_like(static_cast<int>(state.range(0)));
  const ClockTree base = build_zst(bench);
  for (auto _ : state) {
    ClockTree tree = base;
    insert_buffers(tree, bench, CompositeBuffer{0, 8});
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InsertBuffers)->Arg(100)->Arg(400)->Arg(1600)->Complexity();

static void BM_ExtractStages(benchmark::State& state) {
  const Benchmark bench = generate_ti_like(static_cast<int>(state.range(0)));
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  for (auto _ : state) {
    const StagedNetlist net = extract_stages(tree, bench);
    benchmark::DoNotOptimize(net.node_count());
  }
}
BENCHMARK(BM_ExtractStages)->Arg(400)->Arg(1600);

static void BM_TransientEvaluate(benchmark::State& state) {
  const Benchmark bench = generate_ti_like(static_cast<int>(state.range(0)));
  ClockTree tree = build_zst(bench);
  insert_buffers(tree, bench, CompositeBuffer{0, 8});
  Evaluator eval(bench);
  for (auto _ : state) {
    const EvalResult r = eval.evaluate(tree);
    benchmark::DoNotOptimize(r.nominal_skew);
  }
}
BENCHMARK(BM_TransientEvaluate)->Arg(100)->Arg(400);

/// Every stage of the finished flow on generate_ti_like(2000, 77), with the
/// drives a full evaluation hands the kernel: per stage, one per (corner x
/// source transition), input slews propagated stage to stage exactly as
/// the level sweep (LevelSweep::run) does.
struct RecordedStages {
  StagedNetlist net;
  std::size_t num_stages = 0;
  std::size_t max_taps = 0;
  std::vector<BatchDrive> drives;  ///< num_stages x combos, stage-major
  std::size_t combos = 0;
};

static const RecordedStages& recorded_ti2k() {
  static const RecordedStages rec = [] {
    const Benchmark bench = generate_ti_like(2000, 77);
    const FlowResult flow = run_contango(bench);
    RecordedStages r;
    r.net = extract_stages(flow.tree, bench);
    const StagedNetlist& net = r.net;
    r.num_stages = net.stages.size();
    const std::size_t nc = bench.tech.corners.size();
    r.combos = nc * kNumTransitions;
    r.drives.resize(r.num_stages * r.combos);
    for (const Stage& stage : net.stages) {
      r.max_taps = std::max(r.max_taps, stage.taps.size());
    }

    const TransientSimulator sim;
    TransientScratch scratch;
    std::vector<TapTiming> taps;
    for (std::size_t ci = 0; ci < nc; ++ci) {
      const Volt vdd = bench.tech.corners[ci];
      for (int t = 0; t < kNumTransitions; ++t) {
        const std::size_t c = ci * kNumTransitions + static_cast<std::size_t>(t);
        // Input event per stage: slew and direction at the driver input.
        std::vector<Ps> in_slew(r.num_stages, EvalOptions{}.source_input_slew);
        std::vector<Transition> in_dir(r.num_stages, static_cast<Transition>(t));
        for (std::size_t si = 0; si < r.num_stages; ++si) {
          const Stage& stage = net.stages[si];
          Transition out_dir = in_dir[si];
          if (stage.driver_inverts) {
            out_dir = out_dir == Transition::kRise ? Transition::kFall
                                                   : Transition::kRise;
          }
          const BatchDrive drive{
              effective_driver_res(stage.driver_res_nom, bench.tech, vdd, out_dir),
              effective_intrinsic(stage.driver_intrinsic_nom, bench.tech, vdd),
              in_slew[si]};
          r.drives[si * r.combos + c] = drive;
          taps.resize(stage.taps.size());
          sim.simulate_stage_batch(stage, &drive, 1, taps.data(), scratch);
          std::size_t next = 0;
          for (std::size_t k = 0; k < stage.taps.size(); ++k) {
            if (stage.taps[k].is_sink) continue;
            const auto child =
                static_cast<std::size_t>(stage.downstream_stages.at(next++));
            in_slew[child] = taps[k].slew;
            in_dir[child] = out_dir;
          }
        }
      }
    }
    return r;
  }();
  return rec;
}

/// The transient kernel alone: every recorded stage once per iteration, in
/// calls of `width` drives (the stage's drives cycled, so width 8 covers
/// each of the 4 twice).  Items are stage-evals: one drive of one stage.
static void BM_TransientKernel(benchmark::State& state) {
  const RecordedStages& rec = recorded_ti2k();
  const auto width = static_cast<std::size_t>(state.range(0));
  const TransientSimulator sim;
  TransientScratch scratch;
  std::vector<BatchDrive> drives(width);
  std::vector<TapTiming> out(width * rec.max_taps);
  for (auto _ : state) {
    for (std::size_t si = 0; si < rec.num_stages; ++si) {
      for (std::size_t b = 0; b < width; ++b) {
        drives[b] = rec.drives[si * rec.combos + b % rec.combos];
      }
      sim.simulate_stage_batch(rec.net.stages[si], drives.data(), width,
                               out.data(), scratch);
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rec.num_stages * width));
}
BENCHMARK(BM_TransientKernel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// The `.bench` codec on generate_ti_like(5000, 77): items are text bytes.
static const std::string& ti5k_text() {
  static const std::string text = [] {
    std::ostringstream out;
    write_benchmark(generate_ti_like(5000, 77), out);
    return out.str();
  }();
  return text;
}

static void BM_WriteBenchmark(benchmark::State& state) {
  const Benchmark bench = generate_ti_like(5000, 77);
  for (auto _ : state) {
    std::ostringstream out;
    write_benchmark(bench, out);
    benchmark::DoNotOptimize(out.tellp());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ti5k_text().size()));
}
BENCHMARK(BM_WriteBenchmark);

static void BM_ReadBenchmark(benchmark::State& state) {
  const std::string& text = ti5k_text();
  for (auto _ : state) {
    std::istringstream in(text);
    const Benchmark bench = read_benchmark(in);
    benchmark::DoNotOptimize(bench.sinks.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadBenchmark);

static void BM_BenchmarkContentHash(benchmark::State& state) {
  const Benchmark bench = generate_ti_like(5000, 77);
  for (auto _ : state) {
    const Hash128 h = benchmark_content_hash(bench);
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ti5k_text().size()));
}
BENCHMARK(BM_BenchmarkContentHash);

BENCHMARK_MAIN();
