// The workload registry and the layer probes of the traced runs.
#include <vector>

#include "blas/gemm.hpp"
#include "chem/integrals.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace blas = fit::blas;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"real-unfused", run_real_unfused},
      {"real-fused-inner", run_real_fused_inner},
      {"serve-mix", run_serve_mix},
  };
  return all;
}

GemmThreads::GemmThreads(std::size_t threads) : saved_(blas::gemm_config()) {
  blas::GemmConfig cfg = saved_;
  cfg.threads = threads;
  blas::set_gemm_config(cfg);
}

GemmThreads::~GemmThreads() { blas::set_gemm_config(saved_); }

namespace {

std::vector<double> filled(std::size_t count, double scale) {
  std::vector<double> v(count);
  for (std::size_t i = 0; i < count; ++i)
    v[i] = scale * static_cast<double>((i * 7919) % 1009) / 1009.0 - 0.5;
  return v;
}

}  // namespace

double probe_engine_gflops(Tracer& tr) {
  constexpr std::size_t n = 512;
  const std::vector<double> a = filled(n * n, 1.0), b = filled(n * n, 0.5);
  std::vector<double> c(n * n);
  GemmThreads one(1);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Scope span(tr, "blas.gemm n=512");
    const auto t0 = Clock::now();
    blas::gemm(blas::Trans::No, blas::Trans::No, n, n, n, 1.0, a.data(), n,
               b.data(), n, 0.0, c.data(), n);
    rates.push_back(blas::gemm_flops(n, n, n) / since(t0) / 1e9);
  }
  return median(rates);
}

double probe_small_gemm_gflops(Tracer& tr, std::size_t tile) {
  const std::vector<double> a = filled(tile * tile, 1.0),
                            b = filled(tile * tile, 0.5);
  std::vector<double> c(tile * tile);
  const double flops = blas::gemm_flops(tile, tile, tile);
  // Batches of ~2e7 flops: long enough to time, one span per batch.
  const auto calls = static_cast<std::size_t>(2e7 / flops) + 1;
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Scope span(tr, "blas.gemm tile^3 batch");
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i)
      blas::gemm_acc(tile, tile, tile, a.data(), b.data(), c.data());
    rates.push_back(flops * static_cast<double>(calls) / since(t0) / 1e9);
  }
  return median(rates);
}

double probe_integral_rate(Tracer& tr, const fit::core::Problem& p) {
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    fit::chem::IntegralEngine engine(p.n(), p.irreps, p.molecule.seed);
    Tracer::Scope span(tr, "chem.materialize");
    const auto t0 = Clock::now();
    const auto a = engine.materialize();
    rates.push_back(static_cast<double>(engine.evaluations()) / since(t0));
  }
  return median(rates);
}

}  // namespace perfbench
