#include "cts/flow.h"

#include "cts/pipeline.h"

namespace contango {

// The monolithic Fig. 1 sequence that used to live here is now eight
// stock passes (cts/pass.cpp) executed by the pipeline engine
// (cts/pipeline.cpp); the default pipeline reproduces it bit-identically,
// with the stage switches mapping to omitted passes.
FlowResult run_contango(const Benchmark& bench, const FlowOptions& options) {
  return Pipeline::from_options(options).run(bench, options);
}

}  // namespace contango
