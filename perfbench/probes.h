// Layer probes: each layer's public kernels timed on inputs shaped like a
// workload, next to measured single-core machine ceilings.
#pragma once

#include <string>

namespace gluefl::perfbench {

/// Measures GEMM, top-k, wire codec and aggregator throughput at the
/// shapes the (dataset, model, strategy) workload uses, plus memory-copy
/// and FMA ceilings, and writes them to `out_path` as one JSON object.
/// Returns the process exit code.
int run_probes(const std::string& dataset, const std::string& model,
               const std::string& strategy, const std::string& out_path);

}  // namespace gluefl::perfbench
