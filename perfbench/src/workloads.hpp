// The benchmark's workloads and the layer probes the traced runs share.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "blas/tune.hpp"
#include "core/problem.hpp"
#include "harness.hpp"

namespace perfbench {

/// A named workload: runs for RunArgs::seconds and reports the
/// end-to-end (untraced) or per-layer (traced) metric table.
struct Workload {
  const char* name;
  Outcome (*run)(const RunArgs&);
};
/// real-unfused, real-fused-inner and serve-mix.
const std::vector<Workload>& workloads();

Outcome run_real_unfused(const RunArgs& args);
Outcome run_real_fused_inner(const RunArgs& args);
Outcome run_serve_mix(const RunArgs& args);

// ---------------------------------------------------------------------
// Layer probes (traced runs only; each call into a layer is one span)

/// blas::gemm GFLOP/s at n = 512, one GEMM thread: the engine's rate.
double probe_engine_gflops(Tracer& tr);
/// blas::gemm GFLOP/s at the tile x tile x tile shape a workload's
/// contractions issue, under the active GEMM configuration.
double probe_small_gemm_gflops(Tracer& tr, std::size_t tile);
/// Integral evaluations per second of IntegralEngine::materialize() on
/// a fresh engine of `p`'s extent and symmetry.
double probe_integral_rate(Tracer& tr, const fit::core::Problem& p);

/// Runs its scope under a GEMM configuration with `threads` lanes and
/// restores the previous configuration afterwards.
class GemmThreads {
 public:
  explicit GemmThreads(std::size_t threads);
  ~GemmThreads();
  GemmThreads(const GemmThreads&) = delete;
  GemmThreads& operator=(const GemmThreads&) = delete;

 private:
  fit::blas::GemmConfig saved_;
};

}  // namespace perfbench
