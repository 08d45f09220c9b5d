#include "core/schedules_par.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/schedules_baseline.hpp"

#include "blas/gemm.hpp"
#include "blas/level1.hpp"
#include "blas/tune.hpp"
#include "bounds/transform_bounds.hpp"
#include "chem/coeffs.hpp"
#include "core/sym_tile.hpp"
#include "core/planner.hpp"
#include "tensor/pairs.hpp"
#include "tensor/tiling.hpp"
#include "util/format.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"
#include "util/timer.hpp"

namespace fit::core {

using blas::gemm;
using blas::gemm_flops;
using blas::Trans;
using ga::GlobalArray;
using runtime::Cluster;
using runtime::RankBuffer;
using runtime::RankCtx;
using tensor::Tiling;

namespace {

/// Shared state for one parallel transform run.
struct Par {
  const Problem& p;
  Cluster& cl;
  ParOptions opt;
  Tiling t;           // orbital tiling (all four dims)
  std::size_t nt;     // tile count per dimension
  // Spatial symmetry at tile granularity: irrep_mask[ti] is the set of
  // irreps present in orbital tile ti; pair_mask[ti][tj] the set of
  // xor-products. A C tile (ta,tb,tc,td) can hold an allowed quadruple
  // iff pair_mask[ta][tb] & pair_mask[tc][td] != 0.
  std::vector<std::uint32_t> irrep_mask;
  std::vector<std::vector<std::uint32_t>> pair_mask;

  // Dynamic-scheduler metrics (see run_claimed_phase): how many tasks
  // were claimed through the counter/steal paths, the counter waits
  // (count + seconds), steals, orphan adoptions after a mid-phase
  // rank death, and counter re-homings.
  obs::MetricsRegistry::Id id_sched_claims, id_sched_steals,
      id_sched_counter_waits, id_sched_counter_wait_s, id_sched_orphans,
      id_sched_reowns, id_sched_worst, id_sched_fetches, id_sched_hops,
      id_sched_occupancy;

  // Where this run started, for finish(): the kernel engine's and the
  // cluster's registries (their deltas are this run's gemm work and
  // its traffic, scheduler and fault/recovery activity), the cluster's
  // phase count and modeled clock, and the host clock.
  obs::MetricsRegistry::Snapshot gemm0, reg0;
  std::size_t phases0 = 0;
  double sim0 = 0;
  WallTimer timer;

  Par(const Problem& problem, Cluster& cluster, const ParOptions& options)
      : p(problem), cl(cluster), opt(options),
        t(Tiling::irrep_aligned(problem.irreps,
                                std::min(options.tile, problem.n()))),
        nt(t.ntiles()) {
    auto& gm = blas::gemm_metrics();
    // Get-or-create: readers sum these by name even before any gemm.
    gm.counter("gemm.calls");
    gm.counter("gemm.flops");
    gm.counter("gemm.pack_bytes");
    gemm0 = gm.snapshot();
    auto& reg = cl.metrics();
    id_sched_claims = reg.counter("sched.claims");
    id_sched_steals = reg.counter("sched.steals");
    id_sched_counter_waits = reg.counter("sched.counter_waits");
    id_sched_counter_wait_s = reg.counter("sched.counter_wait_s");
    id_sched_orphans = reg.counter("sched.orphans_adopted");
    id_sched_reowns = reg.counter("sched.counter_reowns");
    id_sched_worst = reg.gauge("sched.worst_imbalance");
    id_sched_fetches = reg.counter("sched.counter_fetches");
    id_sched_hops = reg.counter("sched.tree_hops");
    id_sched_occupancy = reg.gauge("sched.counter_batch_occupancy");
    // Session-level overrides: the strategy itself and the batched /
    // tree dequeue granularity (0 keeps the claims-per-rank rule).
    opt.balance = ga::balance_from_env(opt.balance);
    opt.counter_batch =
        util::env_size_strict("FOURINDEX_COUNTER_BATCH", opt.counter_batch,
                              /*min=*/0);
    reg.counter("recovery.fallback_epochs");  // get-or-create
    reg.counter("checkpoint.verify_failures");
    reg.counter("fault.domain_kills");
    reg0 = reg.snapshot();
    phases0 = cl.phases().size();
    sim0 = cl.sim_time();
    irrep_mask.assign(nt, 0);
    for (std::size_t ti = 0; ti < nt; ++ti)
      for (std::size_t o = t.lo(ti); o < t.hi(ti); ++o)
        irrep_mask[ti] |= 1u << p.irreps.of(o);
    pair_mask.assign(nt, std::vector<std::uint32_t>(nt, 0));
    for (std::size_t ti = 0; ti < nt; ++ti)
      for (std::size_t tj = 0; tj < nt; ++tj)
        for (unsigned h1 = 0; h1 < p.irreps.order(); ++h1)
          for (unsigned h2 = 0; h2 < p.irreps.order(); ++h2)
            if ((irrep_mask[ti] >> h1 & 1) && (irrep_mask[tj] >> h2 & 1))
              pair_mask[ti][tj] |= 1u << (h1 ^ h2);
  }

  bool tile_allowed(std::size_t ta, std::size_t tb, std::size_t tc,
                    std::size_t td) const {
    return (pair_mask[ta][tb] & pair_mask[tc][td]) != 0;
  }

  ga::TileFilter spatial_filter() const {
    return [this](std::span<const std::size_t> c) {
      return c[0] >= c[1] && c[2] >= c[3] &&
             tile_allowed(c[0], c[1], c[2], c[3]);
    };
  }

  // Active transformation matrix: the problem's own B, unless a
  // batched run has pointed the contraction phases at one member's
  // coefficient set (the only thing distinguishing shared-basis batch
  // members from each other).
  const tensor::Matrix* b_active = nullptr;

  const double* b() const {
    return b_active ? b_active->data() : p.b.data();
  }
  std::size_t n() const { return p.n(); }

  /// Write one tile — put, or acc when `accumulate`. Under
  /// ParOptions::overlap the op is nonblocking: GA consumes `data` at
  /// issue, so the caller may reuse it at once while the wire time
  /// hides behind its next iteration; the phase barrier waits for
  /// whatever is still in flight.
  void write(RankCtx& ctx, GlobalArray& out, const ga::TileCoord& coord,
             const double* data, bool accumulate) const {
    if (opt.overlap) {
      if (accumulate)
        out.nbacc(ctx, coord, data);
      else
        out.nbput(ctx, coord, data);
    } else if (accumulate) {
      out.acc(ctx, coord, data);
    } else {
      out.put(ctx, coord, data);
    }
  }
};

/// A symmetric index pair an array stores as a triangle.
using SymPair = std::optional<std::pair<int, int>>;

/// The double-buffered fetch pipeline: fetch tile coord_of(i) of `arr`
/// for i < n into a slot of `slot` words and pass it to use(i, data)
/// (data is null in Simulate mode). With ParOptions::overlap the fetch
/// of tile i+1 is in flight while tile i is used; without, each fetch
/// is waited on at once, which costs exactly what the blocking ops
/// always did (an nb issue followed immediately by its wait is fully
/// exposed). Either way the GA operations execute in the same order,
/// so fault-injection points and Real-mode results are identical.
/// When `arr` stores `sym` as a triangle, mirrored tiles land in a
/// second buffer (`what_mirrored`) and are transposed on arrival.
template <class CoordOf, class Use>
void fetch_tiles(const Par& par, RankCtx& ctx, const GlobalArray& arr,
                 std::size_t n, std::size_t slot, const SymPair& sym,
                 const char* what, const char* what_mirrored,
                 CoordOf&& coord_of, Use&& use) {
  const std::size_t nslots = par.opt.overlap ? 2 : 1;
  RankBuffer buf(ctx, nslots * slot, what);
  std::optional<RankBuffer> mirror;
  if (sym) mirror.emplace(ctx, nslots * slot, what_mirrored);
  auto at = [&](RankBuffer& b, std::size_t s) {
    return ctx.real() ? b.data() + s * slot : nullptr;
  };
  SymFetch fetch[2];
  auto issue = [&](std::size_t i, std::size_t s) {
    const ga::TileCoord c = coord_of(i);
    if (sym) {
      fetch[s] = nbget_sym_tile(arr, ctx, c, sym->first, sym->second,
                                at(buf, s), at(*mirror, s));
    } else {
      fetch[s] = SymFetch{};
      fetch[s].handle = arr.nbget(ctx, c, at(buf, s));
    }
  };
  if (!par.opt.overlap) {
    for (std::size_t i = 0; i < n; ++i) {
      issue(i, 0);
      finish_sym_tile(ctx, fetch[0]);
      use(i, at(buf, 0));
    }
    return;
  }
  if (n == 0) return;
  issue(0, 0);
  for (std::size_t i = 0, cur = 0; i < n; ++i, cur = 1 - cur) {
    finish_sym_tile(ctx, fetch[cur]);
    if (i + 1 < n) issue(i + 1, 1 - cur);
    use(i, at(buf, cur));
  }
}

/// Run one phase whose work is an indexed list of independently
/// executable tasks, distributed per ParOptions::balance.
///
/// The claim order is planned up front (ga::plan_tasks — a
/// deterministic discrete-event simulation of the NXTVAL counter /
/// steal protocol over `cost_of` estimates) and each rank *replays*
/// its claim list inside the phase, charging the scheduling traffic
/// through the alpha-beta model: a fetch-and-add round trip plus the
/// modeled contention stall per Counter claim, a control round trip
/// per steal. Static claims each task on its static owner in the
/// canonical order with zero overhead, which reproduces the
/// historical `if (owner != rank) continue` loops exactly — same GA
/// op sequence, same fault-injection points, same results.
///
/// Fault integration: the plan is computed *before* run_phase fires
/// the phase-boundary faults, so a rank killed at the boundary still
/// has a claim list. The survivor Cluster::live_owner maps it to
/// adopts those orphaned claims (after its own), and a dead counter
/// host is re-homed the same way — work is never lost, and Real-mode
/// results stay bit-identical because every output tile is written by
/// exactly one task per phase.
void run_claimed_phase(
    Par& par, const std::string& label, std::size_t n_tasks,
    const std::function<std::size_t(std::size_t)>& owner_of,
    const std::function<double(std::size_t)>& cost_of,
    const std::function<void(RankCtx&, std::size_t)>& body) {
  ga::Balance mode = par.opt.balance;
  std::vector<std::size_t> owner(n_tasks);
  for (std::size_t t = 0; t < n_tasks; ++t) owner[t] = owner_of(t);
  std::vector<double> cost;
  if (mode != ga::Balance::Static) {
    cost.resize(n_tasks);
    for (std::size_t t = 0; t < n_tasks; ++t) cost[t] = cost_of(t);
  }
  ga::TaskCounter counter(par.cl, label);
  ga::TaskPlan plan;
  if (mode == ga::Balance::Auto) {
    BalanceCache* memo = par.opt.balance_cache;
    const auto cached = memo ? memo->picks.find(label)
                             : std::unordered_map<std::string,
                                                  ga::Balance>::iterator{};
    if (memo && cached != memo->picks.end()) {
      // A previous identical run already chose for this phase: replay
      // its mode and skip the six-candidate DES — the whole point of
      // the serve schedule cache.
      mode = cached->second;
      plan = ga::plan_tasks(par.cl, mode, counter, cost, owner,
                            par.opt.counter_batch);
      memo->hits += 1;
    } else {
      // Planner-chosen mode: evaluate every fixed mode's claim DES on
      // this phase's cost estimates and replay the cheapest.
      BalancePick pick = choose_balance(par.cl, counter, cost, owner,
                                        par.opt.counter_batch);
      mode = pick.balance;
      plan = std::move(pick.plan);
      if (memo) memo->picks[label] = mode;
      FIT_LOG_DEBUG(label << ": auto balance picked "
                          << ga::to_string(mode) << " (makespan "
                          << plan.makespan_s << " s)");
    }
  } else {
    plan = ga::plan_tasks(par.cl, mode, counter, cost, owner,
                          par.opt.counter_batch);
  }
  auto& reg = par.cl.metrics();
  par.cl.run_phase(label, [&](RankCtx& ctx) {
    for (std::size_t nom = 0; nom < plan.claims.size(); ++nom) {
      if (plan.claims[nom].empty()) continue;
      if (nom != ctx.rank()) {
        // Orphan adoption: a nominal rank that died between planning
        // and the barrier executes nowhere — its survivor runs the
        // claims instead.
        if (!par.cl.is_dead(nom) || par.cl.live_owner(nom) != ctx.rank())
          continue;
        reg.add(par.id_sched_orphans, ctx.rank(),
                static_cast<double>(plan.claims[nom].size()));
      }
      for (const ga::TaskClaim& claim : plan.claims[nom]) {
        if (claim.fetched) {
          // One fetch-and-add against the claim's counter, whose live
          // host is re-resolved through Cluster::live_owner — a dead
          // counter home (flat, per-node or tree) re-targets here.
          counter.charge_fetch_add(ctx, claim.home, claim.wait_s);
          reg.add(par.id_sched_counter_waits, ctx.rank(), 1);
          reg.add(par.id_sched_counter_wait_s, ctx.rank(), claim.wait_s);
          if (claim.task != ga::TaskClaim::kNone)
            reg.add(par.id_sched_fetches, ctx.rank(), 1);
          if (claim.hops > 0)
            reg.add(par.id_sched_hops, ctx.rank(), claim.hops);
        } else if (claim.stolen) {
          const std::size_t victim = par.cl.live_owner(claim.peer);
          ctx.charge_transfer(victim, 8.0);  // steal request
          ctx.charge_transfer(victim, 8.0);  // grant
          reg.add(par.id_sched_steals, ctx.rank(), 1);
        }
        if (claim.task == ga::TaskClaim::kNone) continue;
        if (mode != ga::Balance::Static)
          reg.add(par.id_sched_claims, ctx.rank(), 1);
        const double t0 = ctx.elapsed();
        body(ctx, claim.task);
        if (par.cl.comm_tracing())
          ctx.note_span(label + " task " + std::to_string(claim.task), t0,
                        ctx.elapsed() - t0);
      }
    }
  });
  // Count counters whose planned host is no longer what live_owner
  // resolves to — those fetches were re-homed mid-phase (flat counter,
  // per-node counters and tree nodes all re-own independently).
  for (std::size_t i = 0; i < plan.counter_homes.size(); ++i)
    if (par.cl.live_owner(plan.counter_homes[i]) != plan.counter_owners[i])
      reg.add(par.id_sched_reowns, 0, 1);
  if (plan.n_fetches > 0)
    reg.set(par.id_sched_occupancy, 0,
            static_cast<double>(plan.n_tasks) /
                static_cast<double>(plan.n_fetches));
}

/// Task list for a tile-parallel phase: every existing tile of `out`,
/// statically owned by the tile's owner — identical, in Static mode,
/// to iterating out.tiles_of(rank).
std::function<std::size_t(std::size_t)> tile_owner_of(
    const GlobalArray& out) {
  return [&out](std::size_t idx) { return out.tile_by_index(idx).owner; };
}

/// Fill phase for an A-style array: owners produce their tiles with
/// the integral engine ("ComputeA"). `l_base` offsets the 4th
/// dimension for l-slice arrays (Listing 8/10 produce A per slice).
void fill_a(Par& par, GlobalArray& a, std::size_t l_base,
            const std::string& label) {
  const auto& m = par.cl.machine();
  run_claimed_phase(
      par, label, a.n_tiles(), tile_owner_of(a),
      [&](std::size_t idx) {
        const double el = static_cast<double>(a.tile_by_index(idx).elements);
        return el / m.integrals_per_sec + 8.0 * el / m.net_bandwidth_bps;
      },
      [&](RankCtx& ctx, std::size_t idx) {
        const auto& ti = a.tile_by_index(idx);
        RankBuffer buf(ctx, ti.elements, "A tile");
        ctx.charge_integrals(static_cast<double>(ti.elements));
        if (ctx.real()) {
          double* out = buf.data();
          for (std::size_t i = ti.lo[0]; i < ti.lo[0] + ti.len[0]; ++i)
            for (std::size_t j = ti.lo[1]; j < ti.lo[1] + ti.len[1]; ++j)
              for (std::size_t k = ti.lo[2]; k < ti.lo[2] + ti.len[2]; ++k)
                for (std::size_t l = ti.lo[3]; l < ti.lo[3] + ti.len[3];
                     ++l)
                  *out++ = par.p.engine.value(i, j, k, l_base + l);
        }
        // The put hides behind the next tile's integral evaluation.
        par.write(ctx, a, ti.coord, buf.data(), /*accumulate=*/false);
      });
}

/// The outer l loop of Listings 8 and 10: per slice of width tile_l,
/// fill A_l[(ij), k, l in slice] and pass it to body(al, llo, llen,
/// tag), where `tag` marks the slice's phase labels.
template <class Body>
void for_each_l_slice(Par& par, Body&& body) {
  const Tiling lt(par.n(), std::min(par.opt.tile_l, par.n()));
  for (std::size_t sl = 0; sl < lt.ntiles(); ++sl) {
    const std::string tag = " [l-slice " + std::to_string(sl) + "]";
    auto al = std::make_unique<GlobalArray>(
        par.cl, "A_l",
        std::vector<Tiling>{par.t, par.t, par.t,
                            Tiling(lt.len(sl), lt.len(sl))},
        ga::filter_triangular(0, 1));
    fill_a(par, *al, lt.lo(sl), "fill A" + tag);
    body(al, lt.lo(sl), lt.len(sl), tag);
  }
}

/// Both symmetric pairs stored as triangles: A[(ij),(kl)], O2[(ab),(kl)].
ga::TileFilter both_pairs() {
  return ga::filter_and(ga::filter_triangular(0, 1),
                        ga::filter_triangular(2, 3));
}

/// Contract dimension `dim` of a row-major block against B, over
/// `prefix` leading sub-blocks. Dims 0-2 put B on the left:
/// out[p][r][s] (+)= sum_k B[r][k] in[p][k][s]. Dim 3 puts it on the
/// right, transposed: out[p][r][s] (+)= sum_k in[p][r][k] B[s][k].
/// `b` points at B's panel (row stride `ldb`), `in_stride` separates
/// the input sub-blocks; the output is dense (rows x cols per prefix).
/// The flops are charged once, before the GEMMs.
void contract_block(RankCtx& ctx, std::size_t dim, std::size_t prefix,
                    std::size_t rows, std::size_t cols, std::size_t k,
                    const double* b, std::size_t ldb, const double* in,
                    std::size_t in_stride, double* out, double beta) {
  ctx.charge_flops(gemm_flops(rows, cols, k) * double(prefix));
  if (!ctx.real()) return;
  for (std::size_t ip = 0; ip < prefix; ++ip) {
    double* o = out + ip * rows * cols;
    if (dim == 3)
      gemm(Trans::No, Trans::Yes, rows, cols, k, 1.0, in + ip * in_stride,
           k, b, ldb, beta, o, cols);
    else
      gemm(Trans::No, Trans::No, rows, cols, k, 1.0, b, ldb,
           in + ip * in_stride, cols, beta, o, cols);
  }
}

/// One contraction phase of the chain (Listings 4 and 8).
struct ContractSpec {
  /// The contracted dimension: c1..c4 contract dims 0..3.
  std::size_t dim = 0;
  /// The symmetric pair of the input stored as a triangle, which the
  /// fetch unfolds through nbget_sym_tile; none for a full input.
  SymPair sym = std::nullopt;
  /// Column offset into B (the l slice's start for Listing 8's c4).
  std::size_t l_base = 0;
  /// Accumulate into the output (Listing 8's C, once per slice)
  /// instead of putting.
  bool accumulate = false;
};

/// out[.., x, ..] (+)= sum_y in[.., y, ..] B[x, l_base + y] over
/// dimension spec.dim, one task per tile of `out`: fetch the in tiles
/// along the contracted dimension through the prefetch pipeline and
/// multiply each against its B panel.
void contract(Par& par, const GlobalArray& in, GlobalArray& out,
              const ContractSpec& spec, const std::string& label) {
  // Scratch labels (OOM reports) by contracted dimension.
  static const char* const kTile[] = {"O1 tile", "O2 tile", "O3 tile",
                                      "C tile"};
  static const char* const kFetch[] = {"A fetch", "O1 fetch", "O2 fetch",
                                       "O3 fetch"};
  static const char* const kTranspose[] = {"A transpose", "O1 transpose",
                                           "O2 transpose", "O3 transpose"};
  const std::size_t d = spec.dim;
  const Tiling& kt = in.tiling(d);  // the contracted index
  std::size_t slot = 1;             // largest input tile
  for (std::size_t x = 0; x < 4; ++x) slot *= in.tiling(x).max_width();
  const auto& m = par.cl.machine();
  auto cost = [&](std::size_t idx) {
    // One gemm and one tile fetch per contracted tile.
    const auto& ti = out.tile_by_index(idx);
    const double el = static_cast<double>(ti.elements);
    const double nk = static_cast<double>(kt.extent());
    return 2.0 * el * nk / m.flops_per_rank +
           (8.0 * el / double(ti.len[d]) * nk) / m.net_bandwidth_bps +
           double(kt.ntiles()) * m.net_latency_s;
  };
  run_claimed_phase(
      par, label, out.n_tiles(), tile_owner_of(out), cost,
      [&](RankCtx& ctx, std::size_t idx) {
        const auto& ti = out.tile_by_index(idx);
        // The tile as prefix x rows x cols blocks: dims 0-2 contract
        // their own rows, dim 3 multiplies dim 2's rows by B^T.
        const std::size_t row = std::min<std::size_t>(d, 2);
        std::size_t prefix = 1, cols = 1;
        for (std::size_t x = 0; x < row; ++x) prefix *= ti.len[x];
        for (std::size_t x = row + 1; x < 4; ++x) cols *= ti.len[x];
        const std::size_t rows = ti.len[row];
        RankBuffer obuf(ctx, ti.elements, kTile[d]);
        fetch_tiles(
            par, ctx, in, kt.ntiles(), slot, spec.sym, kFetch[d],
            kTranspose[d],
            [&](std::size_t tk) {
              ga::TileCoord c = ti.coord;
              c[d] = tk;
              return c;
            },
            [&](std::size_t tk, const double* tile) {
              const std::size_t k = kt.len(tk);
              contract_block(ctx, d, prefix, rows, cols, k,
                             par.b() +
                                 out.tiling(d).lo(ti.coord[d]) * par.n() +
                                 spec.l_base + kt.lo(tk),
                             par.n(), tile, d == 3 ? rows * k : k * cols,
                             obuf.data(), 1.0);
            });
        par.write(ctx, out, ti.coord, obuf.data(), spec.accumulate);
      });
}

std::unique_ptr<GlobalArray> make_c(Par& par) {
  std::vector<Tiling> dims(4, par.t);
  // Listing 10 distributes C by its (alpha,beta) block row so the
  // final accumulation is always local; harmless for the others.
  auto owner = [](std::span<const std::size_t> c, std::size_t nranks) {
    return (c[0] * (c[0] + 1) / 2 + c[1]) % nranks;
  };
  return std::make_unique<GlobalArray>(par.cl, "C", dims,
                                       par.spatial_filter(), owner);
}

/// The chain c1..c4 over one A, each intermediate allocated just before
/// the phase that writes it and freed after the phase that reads it;
/// `a` is freed after c1 when `release_a`. With `slice_c` null, l is
/// whole (Listing 4): O1 and O2 store (k,l) as a triangle, c3 unfolds
/// it, and the chain allocates C before c4, puts into it and returns
/// it. Otherwise A is the l slice at `l_base` (Listing 8): the
/// intermediates are full in (k,l) and c4 accumulates into *slice_c.
std::unique_ptr<GlobalArray> contract_chain(Par& par,
                                            std::unique_ptr<GlobalArray>& a,
                                            bool release_a,
                                            GlobalArray* slice_c,
                                            std::size_t l_base,
                                            const std::string& tag) {
  const bool whole = slice_c == nullptr;
  const std::string sfx = whole ? "" : "_l";
  const std::vector<Tiling> dims = {a->tiling(0), a->tiling(1), a->tiling(2),
                                    a->tiling(3)};
  auto o1 = std::make_unique<GlobalArray>(
      par.cl, "O1" + sfx, dims,
      whole ? ga::filter_triangular(2, 3) : ga::TileFilter{});
  contract(par, *a, *o1, {.dim = 0, .sym = {{0, 1}}}, "c1" + tag);
  if (release_a) a.reset();

  auto o2 = std::make_unique<GlobalArray>(
      par.cl, "O2" + sfx, dims,
      whole ? both_pairs() : ga::filter_triangular(0, 1));
  contract(par, *o1, *o2, {.dim = 1}, "c2" + tag);
  o1.reset();

  auto o3 = std::make_unique<GlobalArray>(par.cl, "O3" + sfx, dims,
                                          ga::filter_triangular(0, 1));
  ContractSpec c3{.dim = 2};
  if (whole) c3.sym = {2, 3};
  contract(par, *o2, *o3, c3, "c3" + tag);
  o2.reset();

  std::unique_ptr<GlobalArray> c = whole ? make_c(par) : nullptr;
  contract(par, *o3, whole ? *c : *slice_c,
           {.dim = 3, .l_base = l_base, .accumulate = !whole}, "c4" + tag);
  return c;
}

/// Gather the distributed C into a PackedC — in Real mode with
/// ParOptions::gather_result only.
std::optional<tensor::PackedC> gather_c(const Par& par,
                                        const GlobalArray* c) {
  if (!c || par.cl.mode() != runtime::ExecutionMode::Real ||
      !par.opt.gather_result)
    return std::nullopt;
  tensor::PackedC out(par.n(), par.p.irreps);
  for (std::size_t idx = 0; idx < c->n_tiles(); ++idx) {
    const auto& ti = c->tile_by_index(idx);
    for (std::size_t a = ti.lo[0]; a < ti.lo[0] + ti.len[0]; ++a)
      for (std::size_t b = ti.lo[1]; b < ti.lo[1] + ti.len[1]; ++b) {
        if (b > a) continue;
        const auto hab = par.p.irreps.pair_irrep(a, b);
        for (std::size_t cc = ti.lo[2]; cc < ti.lo[2] + ti.len[2]; ++cc)
          for (std::size_t d = ti.lo[3]; d < ti.lo[3] + ti.len[3]; ++d) {
            if (d > cc) continue;
            if (par.p.irreps.pair_irrep(cc, d) != hab) continue;
            out.add(a, b, cc, d,
                    c->peek(std::vector<std::size_t>{a, b, cc, d}));
          }
      }
  }
  return out;
}

/// This run's statistics — registry deltas against the snapshots Par
/// took — plus the gathered C when `c` is given.
ParResult finish(Par& par, const char* name, const GlobalArray* c) {
  ParResult r;
  ParStats& s = r.stats;
  s.schedule = name;
  auto& reg = par.cl.metrics();
  auto delta = [&](std::string_view metric) {
    return reg.delta(par.reg0, metric);
  };
  s.sim_time = par.cl.sim_time() - par.sim0;
  s.flops = delta("compute.flops");
  s.integral_evals = delta("compute.integral_evals");
  s.remote_bytes = delta("comm.remote_bytes");
  s.local_bytes = delta("comm.local_bytes");
  s.overlapped_seconds = delta("comm.overlapped_seconds");
  s.exposed_seconds = delta("comm.exposed_seconds");
  s.peak_global_bytes = par.cl.global_peak();
  // Worst per-phase imbalance of *this run* (the cluster-lifetime max
  // is Cluster::worst_imbalance); also published as the
  // sched.worst_imbalance gauge next to the scheduler counters.
  double worst = 1.0;
  for (std::size_t i = par.phases0; i < par.cl.phases().size(); ++i)
    worst = std::max(worst, par.cl.phases()[i].imbalance);
  s.worst_imbalance = worst;
  s.n_phases = par.cl.phases().size() - par.phases0;
  s.wall_seconds = par.timer.seconds();
  // Schedule-level registry entries: which schedule ran on this
  // cluster, how often, and the modeled time it contributed.
  const std::string prefix = std::string("schedule.") + name;
  reg.add(reg.counter(prefix + ".runs"), 0, 1);
  reg.add(reg.counter(prefix + ".sim_time_s"), 0, s.sim_time);
  reg.add(reg.counter(prefix + ".host_wall_s"), 0, s.wall_seconds);
  // Actual kernel-engine activity during this transform (Real mode
  // drives the blocked gemm; Simulate mode leaves these at zero).
  const auto& gm = blas::gemm_metrics();
  for (const char* g : {"gemm.calls", "gemm.flops", "gemm.pack_bytes"})
    reg.add(reg.counter(g), 0, gm.delta(par.gemm0, g));
  // Dynamic-scheduler activity of this run (zero under Static) and the
  // checkpoint fallback and domain killing it absorbed.
  s.sched_claims = delta("sched.claims");
  s.sched_steals = delta("sched.steals");
  s.sched_counter_wait_s = delta("sched.counter_wait_s");
  s.sched_counter_fetches = delta("sched.counter_fetches");
  s.sched_tree_hops = delta("sched.tree_hops");
  s.recovery_fallback_epochs = delta("recovery.fallback_epochs");
  s.ckpt_verify_failures = delta("checkpoint.verify_failures");
  s.fault_domain_kills = delta("fault.domain_kills");
  reg.set(par.id_sched_worst, 0, worst);
  r.c = gather_c(par, c);
  return r;
}

/// Fused-inner members (Listing 10): per l-slice the A slice is
/// produced once and every member replays the fused12 / fused34 phases
/// against it with its own B. Phase labels are per-slice but
/// member-invariant, so an Auto balance memo amortizes the claim DES
/// across members as well. Every member's C accumulates across every
/// slice, so all of them stay allocated for the whole run — the
/// memory/throughput trade core::plan_batch accounts for — and no
/// member is complete before the last slice.
void fused_inner_members(Par& par, std::span<const tensor::Matrix> bs,
                         BatchParResult& r) {
  std::vector<std::unique_ptr<GlobalArray>> cs;
  for (std::size_t m = 0; m < bs.size(); ++m) cs.push_back(make_c(par));
  Cluster& cluster = par.cl;
  const ParOptions& opt = par.opt;
  const std::size_t n = par.n();
  const std::size_t nranks = cluster.n_ranks();

  // Alpha parallelization factor (Sec. 7.3): with only the fused k
  // loop parallel there are nt work units; splitting the alpha range
  // into chunks multiplies parallelism (and the A communication).
  const std::size_t n_ac =
      opt.alpha_parallel > 0
          ? opt.alpha_parallel
          : std::max<std::size_t>(1, (nranks + par.nt - 1) / par.nt);
  // Map alpha tiles to chunks. The triangular alpha >= beta structure
  // makes tile ta carry weight ~ sum_{tb<=ta} len(ta)*len(tb); greedy
  // assignment of heavy tiles to the lightest chunk (Sec. 7.3's
  // "alternative load balancing strategies") flattens the imbalance
  // that contiguous ranges exhibit.
  std::vector<std::size_t> chunk_map(par.nt);
  if (opt.alpha_chunking == ParOptions::AlphaChunking::Contiguous ||
      n_ac == 1) {
    for (std::size_t ta = 0; ta < par.nt; ++ta)
      chunk_map[ta] = ta * n_ac / par.nt;
  } else {
    std::vector<std::size_t> order(par.nt);
    for (std::size_t ta = 0; ta < par.nt; ++ta) order[ta] = ta;
    auto weight = [&](std::size_t ta) {
      double w = 0;
      for (std::size_t tb = 0; tb <= ta; ++tb)
        w += double(par.t.len(ta)) * double(par.t.len(tb));
      return w;
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) {
                return weight(x) > weight(y);
              });
    std::vector<double> load(n_ac, 0.0);
    for (std::size_t ta : order) {
      const std::size_t lightest = static_cast<std::size_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      chunk_map[ta] = lightest;
      load[lightest] += weight(ta);
    }
  }
  auto chunk_of = [&](std::size_t ta) { return chunk_map[ta]; };
  // Static owner of fused12 work unit (tk, ac) — also the task index
  // modulo the rank count, which the claim plans are seeded from.
  auto unit_owner = [&](std::size_t tk, std::size_t ac) {
    return (tk * n_ac + ac) % nranks;
  };

  // (ta, tb <= ta) pair rows of the fused34 phase, in the historical
  // order: pair p = ta*(ta+1)/2 + tb is its own task index.
  std::vector<std::pair<std::size_t, std::size_t>> ab_pairs;
  for (std::size_t ta = 0; ta < par.nt; ++ta)
    for (std::size_t tb = 0; tb <= ta; ++tb) ab_pairs.emplace_back(ta, tb);

  // Tile pairs of the triangular A gather, in the historical
  // (tj outer, ti >= tj) order; indexable for the prefetch pipeline.
  std::vector<std::pair<std::size_t, std::size_t>> ij_tiles;
  for (std::size_t tj = 0; tj < par.nt; ++tj)
    for (std::size_t ti = tj; ti < par.nt; ++ti)
      ij_tiles.emplace_back(ti, tj);

  const auto& mach = cluster.machine();
  for_each_l_slice(par, [&](std::unique_ptr<GlobalArray>& al,
                            std::size_t llo, std::size_t llen,
                            const std::string& tag) {
    // Every member replays both fused phases against this slice's A
    // with its own B; the slice's A frees once the last member's
    // fused12 has consumed it, and only one member's O2 is ever live.
    for (std::size_t mi = 0; mi < bs.size(); ++mi) {
      par.b_active = &bs[mi];

      // O2_l distributed so that the rank computing work unit (tk, ac)
      // owns every O2 tile it produces — puts stay local.
      auto o2_owner = [&](std::span<const std::size_t> tc,
                          std::size_t ranks) {
        (void)ranks;
        return unit_owner(tc[2], chunk_of(tc[0]));
      };
      auto o2 = std::make_unique<GlobalArray>(
          cluster, "O2_l",
          std::vector<Tiling>{par.t, par.t, par.t, Tiling(llen, llen)},
          ga::filter_triangular(0, 1), o2_owner);

      // ---- Fused contractions 1+2 (k-parallel, Listing 10 top) -------
      // Work unit (tk, ac) = task tk*n_ac + ac; cost = the A-block
      // gather plus this chunk's O1/O2 gemms and O2 puts.
      auto f12_cost = [&](std::size_t task) {
        const std::size_t ck = task / n_ac;
        const std::size_t ac = task % n_ac;
        const double ext = double(par.t.len(ck)) * double(llen);
        const double dn = static_cast<double>(n);
        double flops = 0, put_bytes = 0;
        for (std::size_t ta = 0; ta < par.nt; ++ta) {
          if (chunk_of(ta) != ac) continue;
          const double lena = static_cast<double>(par.t.len(ta));
          flops += 2.0 * lena * dn * ext * dn;  // O1 block
          for (std::size_t tb = 0; tb <= ta; ++tb) {
            const double lenb = static_cast<double>(par.t.len(tb));
            flops += 2.0 * lenb * ext * dn * lena;  // O2 tiles
            put_bytes += 8.0 * lena * lenb * ext;
          }
        }
        return flops / mach.flops_per_rank +
               (8.0 * dn * dn * ext + put_bytes) / mach.net_bandwidth_bps +
               double(ij_tiles.size()) * mach.net_latency_s;
      };
      run_claimed_phase(
          par, "fused12" + tag, par.nt * n_ac,
          [&](std::size_t task) { return task % nranks; }, f12_cost,
          [&](RankCtx& ctx, std::size_t task) {
            const std::size_t tk = task / n_ac;
            const std::size_t ac = task % n_ac;
            const std::size_t lenk = par.t.len(tk);
            const std::size_t m = lenk * llen;  // fused (k,l) extent
            // Gather the full (i,j) x (k in tk) x (l in slice) A block.
            // This is the A traffic that replicates with n_ac (Sec 7.3).
            RankBuffer bufa(ctx, n * n * m, "A block");
            const std::size_t tw = par.t.max_width();
            auto a_coord = [&](std::size_t q) {
              return ga::TileCoord{ij_tiles[q].first, ij_tiles[q].second,
                                   tk, 0};
            };
            fetch_tiles(
                par, ctx, *al, ij_tiles.size(), tw * tw * m, std::nullopt,
                "A fetch", nullptr, a_coord,
                [&](std::size_t q, const double* src) {
                  if (!ctx.real()) return;
                  const auto& info = al->info(a_coord(q));
                  for (std::size_t i = info.lo[0];
                       i < info.lo[0] + info.len[0]; ++i)
                    for (std::size_t j = info.lo[1];
                         j < info.lo[1] + info.len[1]; ++j)
                      for (std::size_t x = 0; x < m; ++x) {
                        const double v = *src++;
                        bufa.data()[(i * n + j) * m + x] = v;
                        bufa.data()[(j * n + i) * m + x] = v;
                      }
                });
            // Alpha-tile chunk [ta0, ta1) assigned to chunk ac.
            for (std::size_t ta = 0; ta < par.nt; ++ta) {
              if (chunk_of(ta) != ac) continue;
              const std::size_t lena = par.t.len(ta);
              // O1 block for all alpha in this tile, in fast memory
              // only — never communicated (the point of the fusion).
              RankBuffer o1blk(ctx, lena * n * m, "O1 block");
              contract_block(ctx, 0, 1, lena, n * m, n,
                             par.b() + par.t.lo(ta) * n, n, bufa.data(),
                             n * n * m, o1blk.data(), 0.0);
              for (std::size_t tb = 0; tb <= ta; ++tb) {
                const std::size_t lenb = par.t.len(tb);
                RankBuffer o2tile(ctx, lena * lenb * m, "O2 tile");
                contract_block(ctx, 1, lena, lenb, m, n,
                               par.b() + par.t.lo(tb) * n, n, o1blk.data(),
                               n * m, o2tile.data(), 0.0);
                // The put hides behind the next (tb / ta) gemm.
                par.write(ctx, *o2, {ta, tb, tk, 0}, o2tile.data(),
                          /*accumulate=*/false);
              }
            }
          });
      if (mi + 1 == bs.size()) al.reset();

      // ---- Fused contractions 3+4 ((ab)-parallel, Listing 10 bottom) -
      // Task = (ta, tb) pair row; cost = the O2-row gather, the O3
      // block, and the spatially allowed (tc, td) C contributions —
      // the irregular per-row weight the dynamic strategies flatten.
      auto f34_cost = [&](std::size_t task) {
        const auto [ta, tb] = ab_pairs[task];
        const double lena = static_cast<double>(par.t.len(ta));
        const double lenb = static_cast<double>(par.t.len(tb));
        const double dn = static_cast<double>(n);
        const double dl = static_cast<double>(llen);
        double flops = 2.0 * dn * dl * dn * lena * lenb;  // O3 block
        double acc_bytes = 0;
        for (std::size_t tc = 0; tc < par.nt; ++tc)
          for (std::size_t td = 0; td <= tc; ++td) {
            if (!par.tile_allowed(ta, tb, tc, td)) continue;
            const double cd =
                double(par.t.len(tc)) * double(par.t.len(td));
            flops += 2.0 * cd * dl * lena * lenb;
            acc_bytes += 8.0 * lena * lenb * cd;
          }
        return flops / mach.flops_per_rank +
               (8.0 * lena * lenb * dn * dl + acc_bytes) /
                   mach.net_bandwidth_bps +
               double(par.nt) * mach.net_latency_s;
      };
      run_claimed_phase(
          par, "fused34" + tag, ab_pairs.size(),
          [&](std::size_t task) { return task % nranks; }, f34_cost,
          [&](RankCtx& ctx, std::size_t task) {
            const std::size_t ta = ab_pairs[task].first;
            const std::size_t tb = ab_pairs[task].second;
            const std::size_t lena = par.t.len(ta);
            const std::size_t lenb = par.t.len(tb);
            // Gather O2[(ab) row, all k] and compute the O3 block in
            // fast memory only — never communicated.
            RankBuffer bufo2(ctx, lena * lenb * n * llen, "O2 row");
            const std::size_t tw = par.t.max_width();
            auto o2_coord = [&](std::size_t tk) {
              return ga::TileCoord{ta, tb, tk, 0};
            };
            fetch_tiles(
                par, ctx, *o2, par.nt, tw * tw * tw * llen, std::nullopt,
                "O2 fetch", nullptr, o2_coord,
                [&](std::size_t tk, const double* src) {
                  if (!ctx.real()) return;
                  const auto& info = o2->info(o2_coord(tk));
                  for (std::size_t ia = 0; ia < lena; ++ia)
                    for (std::size_t ib = 0; ib < lenb; ++ib)
                      for (std::size_t k = info.lo[2];
                           k < info.lo[2] + info.len[2]; ++k)
                        for (std::size_t ll = 0; ll < llen; ++ll)
                          bufo2.data()[((ia * lenb + ib) * n + k) * llen +
                                       ll] = *src++;
                });
            RankBuffer bufo3(ctx, lena * lenb * n * llen, "O3 block");
            contract_block(ctx, 2, lena * lenb, n, llen, n, par.b(), n,
                           bufo2.data(), n * llen, bufo3.data(), 0.0);
            for (std::size_t tc = 0; tc < par.nt; ++tc)
              for (std::size_t td = 0; td <= tc; ++td) {
                if (!par.tile_allowed(ta, tb, tc, td)) continue;
                const std::size_t lenc = par.t.len(tc);
                const std::size_t lend = par.t.len(td);
                RankBuffer ctile(ctx, lena * lenb * lenc * lend, "C tile");
                // Rows tc of the O3 block against B[td, l slice]^T.
                contract_block(
                    ctx, 3, lena * lenb, lenc, lend, llen,
                    par.b() + par.t.lo(td) * n + llo, n,
                    ctx.real() ? bufo3.data() + par.t.lo(tc) * llen : nullptr,
                    n * llen, ctile.data(), 1.0);
                // The accumulate hides behind the next (tc,td) gemm.
                par.write(ctx, *cs[mi], {ta, tb, tc, td}, ctile.data(),
                          /*accumulate=*/true);
              }
          });
      o2.reset();
    }
    par.b_active = nullptr;
  });
  const double done = par.cl.sim_time() - par.sim0;
  for (auto& c : cs) {
    r.member_done_s.push_back(done);
    r.c.push_back(gather_c(par, c.get()));
    c.reset();
  }
}

/// What a batch driver runs between setup and finish: every member's
/// transform, appending its gathered C and completion time to `r`.
using BatchBody = void (*)(Par& par, std::span<const tensor::Matrix> bs,
                           BatchParResult& r);

/// The frame every batch driver shares, and with it the solo unfused
/// and fused-inner runs, which are batches of one: member validation,
/// a private Auto memo (when the caller brought none) so the members'
/// identically shaped phases pay the six-candidate DES once, the body,
/// and the run's statistics under `name`.
BatchParResult run_batch(const Problem& p,
                         std::span<const tensor::Matrix> member_b,
                         Cluster& cluster, const ParOptions& opt,
                         const char* name, BatchBody body) {
  FIT_REQUIRE(!member_b.empty(), "batched transform needs >= 1 member");
  for (const auto& b : member_b)
    FIT_REQUIRE(b.rows() == p.irreps.n_orbitals() &&
                    b.cols() == p.irreps.n_orbitals(),
                "batch member B must be " << p.irreps.n_orbitals()
                                          << " x "
                                          << p.irreps.n_orbitals());
  ParOptions o = opt;
  BalanceCache local_memo;
  if (!o.balance_cache) o.balance_cache = &local_memo;
  Par par(p, cluster, o);
  BatchParResult r;
  body(par, member_b, r);
  r.stats = std::move(finish(par, name, nullptr).stats);
  return r;
}

/// A batch of one as a plain result.
ParResult solo(BatchParResult&& batch) {
  ParResult r;
  r.c = std::move(batch.c.front());
  r.stats = std::move(batch.stats);
  return r;
}

/// Unfused members: the AO integral tensor is member-invariant, so it
/// is filled — and its integral evaluation paid — exactly once; it
/// frees after the last member's c1. Each member's C is gathered and
/// freed before the next member starts, so the live set never exceeds
/// one member's chain.
void unfused_members(Par& par, std::span<const tensor::Matrix> bs,
                     BatchParResult& r) {
  auto a = std::make_unique<GlobalArray>(
      par.cl, "A", std::vector<Tiling>(4, par.t), both_pairs());
  fill_a(par, *a, 0, "fill A");
  for (std::size_t m = 0; m < bs.size(); ++m) {
    par.b_active = &bs[m];
    auto c = contract_chain(par, a, m + 1 == bs.size(), nullptr, 0, "");
    r.member_done_s.push_back(par.cl.sim_time() - par.sim0);
    r.c.push_back(gather_c(par, c.get()));
  }
  par.b_active = nullptr;
}

}  // namespace

bool unfused_fits(const Problem& p, const runtime::Cluster& cluster) {
  const auto sz = p.sizes();
  // Peak live set of the unfused chain plus ~10% tile padding slack.
  const double need = 8.0 * (static_cast<double>(sz.unfused_peak()) +
                             static_cast<double>(sz.c)) *
                      1.10;
  return need <= cluster.aggregate_capacity_bytes();
}

ParResult unfused_par_transform(const Problem& p, Cluster& cluster,
                                const ParOptions& opt) {
  return solo(run_batch(p, std::span(&p.b, 1), cluster, opt, "unfused",
                        unfused_members));
}

ParResult fused_par_transform(const Problem& p, Cluster& cluster,
                              const ParOptions& opt) {
  Par par(p, cluster, opt);
  auto c = make_c(par);
  for_each_l_slice(par, [&](std::unique_ptr<GlobalArray>& al,
                            std::size_t llo, std::size_t,
                            const std::string& tag) {
    contract_chain(par, al, /*release_a=*/true, c.get(), llo, tag);
  });
  return finish(par, "fused", c.get());
}

ParResult fused_inner_par_transform(const Problem& p, Cluster& cluster,
                                    const ParOptions& opt) {
  return solo(run_batch(p, std::span(&p.b, 1), cluster, opt, "fused-inner",
                        fused_inner_members));
}

BatchParResult batched_unfused_par_transform(
    const Problem& p, std::span<const tensor::Matrix> member_b,
    Cluster& cluster, const ParOptions& opt) {
  return run_batch(p, member_b, cluster, opt, "batched-unfused",
                   unfused_members);
}

BatchParResult batched_fused_inner_par_transform(
    const Problem& p, std::span<const tensor::Matrix> member_b,
    Cluster& cluster, const ParOptions& opt) {
  return run_batch(p, member_b, cluster, opt, "batched-fused-inner",
                   fused_inner_members);
}

std::vector<tensor::Matrix> batch_member_bs(const Problem& p,
                                            std::size_t count) {
  std::vector<tensor::Matrix> bs;
  bs.reserve(count);
  for (std::size_t m = 0; m < count; ++m)
    bs.push_back(m == 0 ? p.b
                        : chem::make_mo_coefficients(
                              p.irreps, p.molecule.seed * 7919 + 13 + m));
  return bs;
}

ParResult hybrid_transform(const Problem& p, Cluster& cluster,
                           const ParOptions& opt) {
  if (unfused_fits(p, cluster)) {
    auto r = unfused_par_transform(p, cluster, opt);
    r.stats.schedule = "hybrid(unfused)";
    return r;
  }
  auto r = fused_inner_par_transform(p, cluster, opt);
  r.stats.schedule = "hybrid(fused-inner)";
  return r;
}

ParResult resilient_transform(const Problem& p, Cluster& cluster,
                              const ParOptions& opt) {
  auto& reg = cluster.metrics();
  if (unfused_fits(p, cluster)) {
    try {
      auto r = unfused_par_transform(p, cluster, opt);
      r.stats.schedule = "resilient(unfused)";
      return r;
    } catch (const OutOfMemoryError& e) {
      // A capacity-shrink fault or rank death invalidated the choice
      // mid-run. The intermediates' GAs have been rolled back; degrade
      // along Thm 5.2's order to the O(n^3 Tl) fused-inner schedule
      // and recompute from the integrals.
      reg.add(reg.counter("plan.replans"), 0, 1);
      cluster.note_instant("replan: unfused -> fused-inner", 0);
      auto r = fused_inner_par_transform(p, cluster, opt);
      r.stats.schedule = "resilient(unfused->fused-inner)";
      r.stats.note =
          std::string("downgraded after capacity loss (live aggregate ") +
          human_bytes(cluster.aggregate_capacity_bytes()) + "): " + e.what();
      return r;
    }
  }
  auto r = fused_inner_par_transform(p, cluster, opt);
  r.stats.schedule = "resilient(fused-inner)";
  r.stats.note = "unfused intermediates exceed the live aggregate capacity";
  return r;
}

// ---- NWChem baseline models (see schedules_baseline.hpp) ------------

ParResult nwchem_unfused_par_transform(const Problem& p, Cluster& cluster,
                                       const ParOptions& opt) {
  Par par(p, cluster, opt);
  std::vector<Tiling> dims(4, par.t);

  // Production behaviour: every tensor is allocated up front and kept
  // until the end — the ~1.5 n^4 aggregate footprint.
  GlobalArray a(cluster, "A", dims, both_pairs());
  GlobalArray o1(cluster, "O1", dims, ga::filter_triangular(2, 3));
  GlobalArray o2(cluster, "O2", dims, both_pairs());
  GlobalArray o3(cluster, "O3", dims, ga::filter_triangular(0, 1));
  auto c = make_c(par);

  fill_a(par, a, 0, "fill A");
  contract(par, a, o1, {.dim = 0, .sym = {{0, 1}}}, "c1");
  contract(par, o1, o2, {.dim = 1}, "c2");
  contract(par, o2, o3, {.dim = 2, .sym = {{2, 3}}}, "c3");
  contract(par, o3, *c, {.dim = 3}, "c4");
  return finish(par, "nwchem-unfused", c.get());
}

ParResult nwchem_recompute_par_transform(const Problem& p, Cluster& cluster,
                                         const ParOptions& opt) {
  Par par(p, cluster, opt);
  const std::size_t n = par.n();
  const std::size_t np = tensor::npairs(n);
  const std::size_t nranks = cluster.n_ranks();
  auto c = make_c(par);

  // Task = (ta, tb) pair row; dominated by the per-alpha integral
  // recomputation, so cost scales with lena regardless of how much of
  // the (b, c, d) work symmetry later discards — exactly the skew a
  // dynamic strategy absorbs.
  std::vector<std::pair<std::size_t, std::size_t>> ab_pairs;
  for (std::size_t ta = 0; ta < par.nt; ++ta)
    for (std::size_t tb = 0; tb <= ta; ++tb) ab_pairs.emplace_back(ta, tb);
  const auto& mach = cluster.machine();
  auto rc_cost = [&](std::size_t task) {
    const auto [ta, tb] = ab_pairs[task];
    const double lena = static_cast<double>(par.t.len(ta));
    const double lenb = static_cast<double>(par.t.len(tb));
    const double ints = lena * double(n) * double(n) * double(np);
    // Diagonal pair rows do the bb <= aa half of the (ia, ib) square.
    const double nab =
        ta == tb ? lena * (lena + 1.0) / 2.0 : lena * lenb;
    const double flops =
        2.0 * ints +
        nab * 2.0 * double(n) * double(n) * double(n);
    return ints / mach.integrals_per_sec + flops / mach.flops_per_rank;
  };
  run_claimed_phase(
      par, "recompute", ab_pairs.size(),
      [&](std::size_t task) { return task % nranks; }, rc_cost,
      [&](RankCtx& ctx, std::size_t task) {
        const Problem& prob = par.p;
        const std::size_t ta = ab_pairs[task].first;
        const std::size_t tb = ab_pairs[task].second;
        const std::size_t lena = par.t.len(ta);
        const std::size_t lenb = par.t.len(tb);
        // Per-row staging for the C contributions (full (c,d) range).
        RankBuffer crow(ctx, lena * lenb * n * n, "C row");
        RankBuffer o1buf(ctx, n * np, "O1 slice");
        RankBuffer o2buf(ctx, np, "O2 slice");
        RankBuffer o3row(ctx, n, "O3 row");
        for (std::size_t ia = 0; ia < lena; ++ia) {
          const std::size_t aa = par.t.lo(ta) + ia;
          // Recompute the O1 slice for this alpha from on-the-fly
          // integrals — once per (pair-row, alpha): the block-level
          // redundancy factor of the direct scheme.
          ctx.charge_integrals(double(n) * double(n) * double(np));
          ctx.charge_flops(2.0 * double(n) * double(n) * double(np));
          if (ctx.real()) {
            for (std::size_t j = 0; j < n; ++j)
              for (std::size_t pkl = 0; pkl < np; ++pkl) {
                const auto [k, l] = tensor::unpack_pair(pkl);
                double acc = 0.0;
                for (std::size_t i = 0; i < n; ++i)
                  acc += prob.engine.value(i, j, k, l) * prob.b(aa, i);
                o1buf.data()[j * np + pkl] = acc;
              }
          }
          for (std::size_t ib = 0; ib < lenb; ++ib) {
            const std::size_t bb = par.t.lo(tb) + ib;
            if (bb > aa) continue;
            const auto hab = prob.irreps.pair_irrep(aa, bb);
            ctx.charge_flops(2.0 * double(n) * double(np));  // O2
            ctx.charge_flops(2.0 * double(n) * double(n) * double(n));
            if (ctx.real()) {
              std::fill(o2buf.data(), o2buf.data() + np, 0.0);
              for (std::size_t j = 0; j < n; ++j)
                blas::axpy(np, prob.b(bb, j), o1buf.data() + j * np,
                           o2buf.data());
              for (std::size_t cc = 0; cc < n; ++cc) {
                for (std::size_t l = 0; l < n; ++l) {
                  double acc = 0.0;
                  for (std::size_t k = 0; k < n; ++k)
                    acc += o2buf.data()[tensor::pack_pair_sym(k, l)] *
                           prob.b(cc, k);
                  o3row.data()[l] = acc;
                }
                for (std::size_t d = 0; d <= cc; ++d) {
                  if (prob.irreps.pair_irrep(cc, d) != hab) continue;
                  crow.data()[((ia * lenb + ib) * n + cc) * n + d] =
                      blas::dot(n, o3row.data(), prob.b.row(d));
                }
              }
            }
            // c4 flops: one dot of length n per allowed (c >= d) pair.
            ctx.charge_flops(2.0 * double(n) * double(np) /
                             double(prob.irreps.order()));
          }
        }
        // Accumulate the staged row into the distributed C (local: C
        // is distributed by pair row).
        const std::size_t tw = par.t.max_width();
        RankBuffer ctile(ctx, tw * tw * tw * tw, "C tile");
        for (std::size_t tc = 0; tc < par.nt; ++tc)
          for (std::size_t td = 0; td <= tc; ++td) {
            if (!par.tile_allowed(ta, tb, tc, td)) continue;
            if (ctx.real()) {
              const std::size_t lenc = par.t.len(tc);
              const std::size_t lend = par.t.len(td);
              for (std::size_t ia = 0; ia < lena; ++ia)
                for (std::size_t ib = 0; ib < lenb; ++ib)
                  for (std::size_t icc = 0; icc < lenc; ++icc)
                    for (std::size_t id = 0; id < lend; ++id)
                      ctile.data()[((ia * lenb + ib) * lenc + icc) * lend +
                                   id] =
                          crow.data()[((ia * lenb + ib) * n +
                                       par.t.lo(tc) + icc) *
                                          n +
                                      par.t.lo(td) + id];
            }
            c->acc(ctx, ga::TileCoord{ta, tb, tc, td}, ctile.data());
          }
      });
  return finish(par, "nwchem-recompute", c.get());
}

}  // namespace fit::core
