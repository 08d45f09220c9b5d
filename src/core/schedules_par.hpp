// Distributed four-index transform schedules over the Global-Arrays
// substrate — the paper's Section 7 implementations:
//
//   unfused_par_transform      four back-to-back tile contractions in
//                              the style of Listing 4. Lowest flop
//                              count, but needs ~3n^4/4 words of
//                              aggregate memory for the intermediates.
//   fused_par_transform        Listing 8: the outer l loop is fused
//                              across all four contractions; per
//                              l-slice only O(n^3 * Tl) of global
//                              memory is live besides C. Runs the
//                              largest possible problem (Thm 6.2).
//   fused_inner_par_transform  Listing 10: outer fusion as above plus
//                              inner op12/34 fusion, eliminating the
//                              distributed O1 and O3 slices entirely —
//                              the communication-volume-minimal
//                              schedule of Sec. 7.2/7.3, with optional
//                              alpha-parallelization (more parallelism
//                              at the cost of replicated A traffic).
//   hybrid_transform           Sec. 7.4: picks unfused when the
//                              intermediates fit in aggregate memory,
//                              and the fused-inner schedule otherwise.
//
// All schedules run in Real mode (bit-checked against the sequential
// reference) or Simulate mode (counters and modeled time only; used at
// paper scale). OutOfMemoryError propagates to the caller — that is
// the "Failed" outcome of Figure 2.
//
// Implementation shape: Listings 4 and 8 share one contraction routine
// driven by a small descriptor (contracted dimension, the symmetric
// pair its fetch unfolds, B's column offset, put or accumulate) and one
// c1..c4 chain whose only switch is whether l is whole or a slice; the
// fused-inner phases reuse the same block-contraction helper, so the
// GEMM orientation lives in one place. The solo unfused and fused-inner
// schedules are shared-basis batches of one member. Whether a tile
// write is blocking or nonblocking (ParOptions::overlap) is decided in
// one write helper, next to the double-buffered fetch pipeline.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/problem.hpp"
#include "ga/global_array.hpp"
#include "ga/task_counter.hpp"
#include "runtime/cluster.hpp"
#include "tensor/matrix.hpp"
#include "tensor/packed.hpp"

/// \file
/// \brief Distributed schedules (Sec. 7): unfused, fused, fused-inner,
/// the fuse/unfuse hybrid, and the fault-aware resilient wrapper.

namespace fit::core {

/// Memo of the per-phase modes choose_balance picked during one run,
/// replayable by an identical later run: a phase whose label is in the
/// map plans the one recorded mode and skips the six-candidate DES
/// entirely. The serve schedule cache keeps one of these per
/// (problem, machine, balance) fingerprint.
struct BalanceCache {
  std::unordered_map<std::string, ga::Balance> picks;
  /// Phases that found their pick in the memo (DES re-plans skipped).
  std::size_t hits = 0;
};

/// Knobs of the distributed schedules.
struct ParOptions {
  /// Tile width for orbital dimensions.
  std::size_t tile = 8;
  /// Fused outer-loop slice width Tl.
  std::size_t tile_l = 4;
  /// Number of alpha chunks each k tile's work is split across in the
  /// fused-inner schedule (Sec. 7.3). 0 = choose automatically so that
  /// every rank has work.
  std::size_t alpha_parallel = 0;
  /// How alpha tiles are grouped into chunks. Contiguous chunks are the
  /// paper's baseline and suffer the triangular alpha >= beta imbalance
  /// (chunk weight ~ sum of ta+1); Balanced implements the "alternative
  /// load balancing strategies" of Sec. 7.3: greedy weight-balanced
  /// assignment of alpha tiles to chunks.
  enum class AlphaChunking { Contiguous, Balanced };
  /// Alpha-chunking strategy (see AlphaChunking).
  AlphaChunking alpha_chunking = AlphaChunking::Balanced;
  /// Gather the distributed result into a PackedC at the end (Real
  /// mode only; disable for timing runs).
  bool gather_result = true;
  /// Double-buffered prefetch pipelines: fetch the next tile with a
  /// nonblocking get while the current one multiplies, and issue puts /
  /// accumulates nonblocking so their wire time hides behind the next
  /// iteration. Results are bit-identical with the blocking schedule
  /// (the GA layer moves data eagerly at issue and the accumulation
  /// order is unchanged); only the modeled comm/compute overlap —
  /// ParStats::overlapped_seconds — differs. Off = the blocking
  /// baseline, kept for ablation.
  bool overlap = true;
  /// Work-distribution strategy for every parallel phase (Sec. 7.3's
  /// NXTVAL discussion). Static is the plan-time owner map and stays
  /// bit-identical to the historical loops; Counter claims work units
  /// through a modeled shared fetch-and-add counter (paying round
  /// trips and contention at its host rank); Steal seeds per-rank
  /// queues from the static map and steals from the heaviest surviving
  /// rank when a queue drains. Batched / PerNode / Tree are the
  /// counter's contention mitigations (see ga::Balance), and Auto lets
  /// the planner pick the cheapest mode per phase from the alpha-beta
  /// cost model (core::choose_balance). Every mode produces
  /// bit-identical Real-mode results (each output tile is written by
  /// exactly one task per phase); only the modeled time, traffic and
  /// sched.* metrics move. Overridable via FOURINDEX_BALANCE.
  ga::Balance balance = ga::Balance::Static;
  /// Dequeue granularity for Balance::Batched / Tree (tasks per
  /// fetch-and-add at the leaf level). 0 = derive from the
  /// claims-per-rank rule (ga::auto_batch: ~8 fetches per live rank,
  /// clamped to [1, 64]). Overridable via FOURINDEX_COUNTER_BATCH.
  std::size_t counter_batch = 0;
  /// Optional Auto-pick memo shared across runs (see BalanceCache).
  /// Only consulted when balance == Auto: phases found in the memo
  /// replay the recorded mode without re-running the candidate DES;
  /// phases not yet recorded run it and write their pick back. The
  /// caller owns the object and its lifetime.
  BalanceCache* balance_cache = nullptr;
};

/// What a distributed schedule did: modeled time, modeled traffic, and
/// dynamic-scheduler activity.
struct ParStats {
  /// Which schedule actually ran.
  std::string schedule;
  /// Modeled execution time (s).
  double sim_time = 0;
  /// Modeled floating-point operations.
  double flops = 0;
  /// Modeled on-the-fly integral evaluations.
  double integral_evals = 0;
  /// Bytes moved between nodes.
  double remote_bytes = 0;
  /// Bytes moved within a node.
  double local_bytes = 0;
  /// Aggregate GA high-water mark (bytes).
  double peak_global_bytes = 0;
  /// Seconds of wire/disk time hidden behind compute by the
  /// nonblocking pipelines (see runtime::CommStats).
  double overlapped_seconds = 0;
  /// Seconds the ranks' clocks actually stalled on transfers.
  double exposed_seconds = 0;
  /// Worst per-phase imbalance of this run: max over the run's phases
  /// of makespan * ranks / total rank time.
  double worst_imbalance = 1.0;
  /// BSP phases executed.
  std::size_t n_phases = 0;
  /// Host time spent simulating.
  double wall_seconds = 0;
  /// Tasks claimed through the counter or a steal during this run
  /// (zero under Balance::Static).
  double sched_claims = 0;
  /// Steals performed during this run (zero under Balance::Static).
  double sched_steals = 0;
  /// Seconds spent queued at the task counter during this run (zero
  /// under Balance::Static).
  double sched_counter_wait_s = 0;
  /// Fetch-and-adds that returned work during this run (counter
  /// modes); sched_claims / sched_counter_fetches is the realized
  /// batch occupancy.
  double sched_counter_fetches = 0;
  /// Tree-refill ascents performed during this run (Balance::Tree).
  double sched_tree_hops = 0;
  /// Generations the checkpoint restore walked past the newest one
  /// during this run (zero when every restore came from the newest
  /// intact epoch).
  double recovery_fallback_epochs = 0;
  /// Checkpoint tile copies that failed checksum verification during
  /// this run's restores.
  double ckpt_verify_failures = 0;
  /// Whole failure domains (nodes) killed during this run.
  double fault_domain_kills = 0;
  /// Degradation/replan rationale, if any.
  std::string note;
};

/// A distributed schedule's result: the gathered tensor and the stats.
struct ParResult {
  /// Populated in Real mode with gather_result enabled.
  std::optional<tensor::PackedC> c;
  /// Modeled execution statistics.
  ParStats stats;
};

/// Listing 4 x4: four back-to-back distributed tile contractions with
/// all intermediates resident (~3n^4/4 aggregate words).
ParResult unfused_par_transform(const Problem& p, runtime::Cluster& cluster,
                                const ParOptions& opt = {});

/// Listing 8: outer l-loop fusion; per slice only O(n^3 * Tl) global
/// words live besides C.
ParResult fused_par_transform(const Problem& p, runtime::Cluster& cluster,
                              const ParOptions& opt = {});

/// Listing 10: outer fusion plus inner op12/34 fusion — the
/// communication-volume-minimal schedule, with optional
/// alpha-parallelization.
ParResult fused_inner_par_transform(const Problem& p,
                                    runtime::Cluster& cluster,
                                    const ParOptions& opt = {});

/// The fuse/unfuse hybrid (Sec. 7.4). `stats.schedule` records the
/// choice made.
ParResult hybrid_transform(const Problem& p, runtime::Cluster& cluster,
                           const ParOptions& opt = {});

/// The hybrid's fault-aware sibling: chooses like hybrid_transform but
/// against the *live* aggregate capacity (rank deaths and
/// capacity-shrink faults lower it), and when a mid-run capacity loss
/// turns the unfused chain's allocation into an OOM, degrades along
/// Theorem 5.2's order to the fused-inner schedule and re-runs instead
/// of failing. `stats.note` records the rationale; FaultError (retry
/// budget exhausted) still propagates.
ParResult resilient_transform(const Problem& p, runtime::Cluster& cluster,
                              const ParOptions& opt = {});

/// Decision function of the hybrid: true if the unfused intermediates
/// fit into the cluster's aggregate memory (with a small safety
/// margin). Uses the live capacity view, which capacity-shrink faults
/// and rank deaths reduce.
bool unfused_fits(const Problem& p, const runtime::Cluster& cluster);

/// Result of a shared-basis batched transform: one output tensor per
/// batch member plus whole-batch statistics.
struct BatchParResult {
  /// Per-member gathered results (Real mode with gather_result; empty
  /// optionals otherwise), in member order.
  std::vector<std::optional<tensor::PackedC>> c;
  /// Modeled time at which each member's transform completed, relative
  /// to the batch start. Under the unfused chain members complete one
  /// after another; under the fused schedules every member's C is only
  /// complete at the end, so all entries equal the batch makespan.
  std::vector<double> member_done_s;
  /// Whole-batch statistics (the amortized A fill appears once).
  ParStats stats;
};

/// Unfused chain over a shared-basis batch (the MP2-scan case): all
/// members share the problem's AO integral tensor A, differing only in
/// their transformation matrix `member_b[m]`. A is filled — and its
/// integral evaluation paid — exactly once; each member then runs the
/// four contractions with its own B, with A freed after the last
/// member's first contraction and each member's C gathered and freed
/// before the next member starts. Each member's Real-mode result is
/// bit-identical to running it alone through unfused_par_transform.
/// When ParOptions::balance is Auto and no balance_cache is supplied,
/// an internal memo shares the per-phase DES picks across members, so
/// the six-candidate claim planning is also paid once per phase shape.
BatchParResult batched_unfused_par_transform(
    const Problem& p, std::span<const tensor::Matrix> member_b,
    runtime::Cluster& cluster, const ParOptions& opt = {});

/// Fused-inner schedule over a shared-basis batch: per l-slice the A
/// slice is produced once and every member runs its fused12/fused34
/// phases against it, so the integral evaluation amortizes across the
/// batch while only one member's O2 slice is live at a time. All
/// members' C arrays stay allocated for the whole run (each member's C
/// accumulates across every slice) — the memory/throughput trade
/// core::plan_batch accounts for. Results per member are bit-identical
/// to solo fused_inner_par_transform runs.
BatchParResult batched_fused_inner_par_transform(
    const Problem& p, std::span<const tensor::Matrix> member_b,
    runtime::Cluster& cluster, const ParOptions& opt = {});

/// Deterministic member coefficient sets for a shared-basis batch of
/// `count` transforms: member 0 is the problem's own B, members 1..
/// count-1 are fresh symmetry-adapted orthogonal matrices derived from
/// the molecule seed — the "N molecules sharing a basis" shape an MP2
/// energy scan produces.
std::vector<tensor::Matrix> batch_member_bs(const Problem& p,
                                            std::size_t count);

}  // namespace fit::core
