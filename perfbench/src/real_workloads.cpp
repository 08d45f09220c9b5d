// The Real-mode transform workloads: a closed loop of back-to-back
// distributed transforms on one problem and one cluster, each result
// gathered and checked against the sequential unfused_transform.
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "blas/tune.hpp"
#include "chem/molecule.hpp"
#include "core/schedules_par.hpp"
#include "core/schedules_seq.hpp"
#include "runtime/cluster.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = fit::core;
namespace runtime = fit::runtime;

namespace {

/// Tolerance of the tier-1 tests' Real-mode comparisons.
constexpr double kTolerance = 1e-9;
/// Timed transforms per run at the least, whatever --seconds says.
constexpr std::size_t kMinSamples = 3;

struct RealSpec {
  bool fused_inner;
  std::size_t tile;
  std::size_t tile_l;
  bool all_host_threads;  ///< host threads = nproc (else 1)
};

std::size_t nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// System A at 8 nodes, one rank per node, 4 GB per node.
runtime::MachineConfig bench_machine() {
  runtime::MachineConfig m = runtime::system_a(8);
  m.ranks_per_node = 1;
  m.mem_per_node_bytes = 4e9;
  return m;
}

/// Counters one transform moves, read around it.
struct Counters {
  double gemm_calls = 0, gemm_flops = 0, pack_bytes = 0;
  double integral_evals = 0, ga_ops = 0;

  static Counters read(const core::Problem& p, const runtime::Cluster& cl) {
    const auto& gm = fit::blas::gemm_metrics();
    const runtime::CommStats t = cl.totals();
    return {gm.sum("gemm.calls"), gm.sum("gemm.flops"),
            gm.sum("gemm.pack_bytes"),
            static_cast<double>(p.engine.evaluations()),
            t.ga_gets + t.ga_puts + t.ga_accs};
  }
  Counters operator-(const Counters& o) const {
    return {gemm_calls - o.gemm_calls, gemm_flops - o.gemm_flops,
            pack_bytes - o.pack_bytes, integral_evals - o.integral_evals,
            ga_ops - o.ga_ops};
  }
};

Outcome run_real(const RealSpec& spec, const RunArgs& args) {
  Outcome out{args.workload, args.seed, args.trace, {}, {}, {}};
  Tracer tr(args.trace);
  const fit::chem::Molecule mol =
      fit::chem::custom_molecule("bench", 48, 4, derive_seed(args.seed, 1));
  const runtime::MachineConfig machine = bench_machine();
  const std::size_t threads = spec.all_host_threads ? nproc() : 1;

  // Set-up: GEMM configuration, problem, cluster. It is repeated once
  // after every timed transform as well (the repeats are discarded), so
  // the median setup_s samples the whole run, not one moment of it.
  std::vector<double> setup_s, cluster_s;
  struct Setup {
    std::optional<core::Problem> problem;
    std::unique_ptr<runtime::Cluster> cluster;
  };
  auto set_up = [&](Tracer& t) {
    Setup s;
    Tracer::Scope span(t, "setup");
    const auto t0 = Clock::now();
    {
      Tracer::Scope c(t, "blas.reset_gemm_config");
      fit::blas::reset_gemm_config();
    }
    {
      Tracer::Scope c(t, "core.make_problem");
      s.problem.emplace(core::make_problem(mol));
    }
    const auto tc = Clock::now();
    {
      Tracer::Scope c(t, "runtime.Cluster");
      s.cluster = std::make_unique<runtime::Cluster>(
          machine, runtime::ExecutionMode::Real, threads);
    }
    cluster_s.push_back(since(tc));
    setup_s.push_back(since(t0));
    return s;
  };
  Setup live = set_up(tr);
  const core::Problem& problem = *live.problem;
  runtime::Cluster& cluster = *live.cluster;

  // The reference: plain single-threaded sequential transform, not
  // part of set-up. Its time is the sequential baseline.
  core::SeqStats seq;
  double seq_s = 0;
  const fit::tensor::PackedC ref = [&] {
    GemmThreads one(1);
    Tracer::Scope s(tr, "core.unfused_transform (reference)");
    const auto t0 = Clock::now();
    fit::tensor::PackedC c = core::unfused_transform(problem, &seq);
    seq_s = since(t0);
    return c;
  }();

  core::ParOptions opt;
  opt.tile = spec.tile;
  opt.tile_l = spec.tile_l;
  auto transform = [&](runtime::Cluster& cl) {
    return spec.fused_inner ? core::fused_inner_par_transform(problem, cl, opt)
                            : core::unfused_par_transform(problem, cl, opt);
  };
  const char* transform_span = spec.fused_inner
                                   ? "core.fused_inner_par_transform"
                                   : "core.unfused_par_transform";

  // Every result must match the reference, and every run must model
  // the same execution as the first one. (A run's modeled time is the
  // difference of the cluster's running clock, so it may differ from
  // the first run's in the last bits.)
  std::optional<core::ParStats> first;
  auto check = [&](Tracer& t, const core::ParResult& r) {
    Tracer::Scope s(t, "verify");
    bool ok = r.c && r.c->max_abs_diff(ref) <= kTolerance;
    if (!first) first = r.stats;
    ok = ok && r.stats.flops == first->flops &&
         std::abs(r.stats.sim_time - first->sim_time) <= 1e-12 * first->sim_time &&
         r.stats.remote_bytes == first->remote_bytes;
    out.checks.record(ok);
  };

  // One untimed warm-up transform, then the timed closed loop. A
  // traced run spends the first half of its time untraced (the
  // baseline of obs.trace_overhead) and the second half traced.
  {
    Tracer::Scope s(tr, "warm-up");
    check(tr, transform(cluster));
  }
  auto loop = [&](Tracer& t, double seconds, Counters* delta) {
    std::vector<double> samples;
    const auto start = Clock::now();
    while (samples.size() < kMinSamples || since(start) < seconds) {
      const bool count = delta && samples.empty();
      const Counters before = count ? Counters::read(problem, cluster) : Counters{};
      const std::size_t id = t.begin(transform_span);
      const auto t0 = Clock::now();
      const core::ParResult r = transform(cluster);
      samples.push_back(since(t0));
      t.end(id);
      if (count) *delta = Counters::read(problem, cluster) - before;
      check(t, r);
      set_up(t);
    }
    return samples;
  };
  Tracer untraced(false);
  const std::vector<double> samples =
      loop(untraced, args.trace ? args.seconds / 2 : args.seconds, nullptr);
  const Timing t = summarize(samples);
  const double gflops = first->flops / t.p50 / 1e9;

  if (!args.trace) {
    out.set("setup_s", median(setup_s), setup_s.size());
    out.set_timing("transform_s", t);
    // The closed loop's client issues one transform per request.
    out.set_timing("request_s", t);
    double busy = 0;
    for (double s : samples) busy += s;
    out.set("requests_per_s", double(samples.size()) / busy, samples.size());
    out.set("gflops", gflops, t.n);
    out.set("sim_s", first->sim_time);
    out.set("peak_rss_mb", peak_rss_mb());
    return out;
  }

  Counters per;
  loop(tr, args.seconds / 2, &per);
  const std::vector<double> traced = tr.durations(transform_span);

  // Layer probes.
  const double engine = probe_engine_gflops(tr);
  const double small = probe_small_gemm_gflops(tr, spec.tile);
  const double rate = probe_integral_rate(tr, problem);
  // Host-thread scaling of this schedule: 1 thread vs nproc threads,
  // one of which is the workload's own configuration.
  std::vector<double> other;
  for (int rep = 0; rep < 3; ++rep) {
    const std::size_t other_threads = threads == 1 ? nproc() : 1;
    Tracer::Scope s(tr, "host-scaling probe");
    std::unique_ptr<runtime::Cluster> cl;
    {
      Tracer::Scope c(tr, "runtime.Cluster");
      cl = std::make_unique<runtime::Cluster>(
          machine, runtime::ExecutionMode::Real, other_threads);
    }
    const std::size_t id = tr.begin(std::string(transform_span) + " threads=" +
                                    std::to_string(other_threads));
    const auto t0 = Clock::now();
    const core::ParResult r = transform(*cl);
    other.push_back(since(t0));
    tr.end(id);
    check(tr, r);
  }
  const double t_other = median(other);
  const double host_scaling =
      threads == 1 ? ratio(t.p50, t_other) : ratio(t_other, t.p50);
  const double seq_gflops = seq.flops / seq_s / 1e9;

  out.set("blas.gemm_calls", per.gemm_calls);
  out.set("blas.flops_per_call", ratio(per.gemm_flops, per.gemm_calls));
  out.set("blas.pack_bytes", per.pack_bytes);
  out.set("blas.engine_gflops", engine, 5);
  out.set("blas.small_gemm_gflops", small, 5);
  out.set("blas.fraction_of_engine", ratio(gflops, engine));
  out.set("chem.integral_evals", per.integral_evals);
  out.set("chem.integral_rate", rate, 3);
  out.set("chem.share", ratio(ratio(per.integral_evals, rate), t.p50));
  out.set("ga.ops", per.ga_ops);
  out.set("ga.remote_bytes", first->remote_bytes);
  out.set("ga.peak_global_bytes", first->peak_global_bytes);
  out.set("runtime.phases", double(first->n_phases));
  out.set("runtime.imbalance", first->worst_imbalance);
  out.set("runtime.exposed_s", first->exposed_seconds);
  out.set("runtime.cluster_s", median(cluster_s), cluster_s.size());
  out.set("runtime.host_scaling", host_scaling, other.size());
  out.set("core.transform_s", median(traced), traced.size());
  out.set("core.seq_gflops", seq_gflops);
  out.set("core.par_over_seq", ratio(gflops, seq_gflops));
  for (const MetricSpec& m : per_layer_metrics())
    if (std::string(m.name).rfind("serve.", 0) == 0) out.set(m.name, 0);
  out.set("obs.trace_overhead", ratio(median(traced), t.p50));
  out.notes.push_back("serve.* are 0: this workload does not use the service");
  out.notes.push_back("host threads " + std::to_string(threads) +
                      "; host_scaling = t(1 thread) / t(" +
                      std::to_string(nproc()) + " threads)");
  write_trace(tr, args, out);
  return out;
}

}  // namespace

Outcome run_real_unfused(const RunArgs& args) {
  return run_real({false, 8, 4, false}, args);
}

Outcome run_real_fused_inner(const RunArgs& args) {
  return run_real({true, 16, 4, true}, args);
}

}  // namespace perfbench
