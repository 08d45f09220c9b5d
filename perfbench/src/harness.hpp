// Shared machinery of the fourindex end-to-end benchmark: run
// arguments, timing statistics, output checks, the in-memory span
// recorder behind the traced run, and the three output forms (human
// table, fourindex.bench/1 document, one-line JSON result).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the bench document, the Chrome trace and the
  /// scratch socket (relative paths keep AF_UNIX paths short).
  std::string out_dir = ".";
};

/// Independent 64-bit value for input `stream` of the run seeded with
/// `seed` (molecule seeds, line order, ...).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// ---------------------------------------------------------------------
// Timing statistics

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median (mean of the two middle values for an even count); 0 for no
/// samples.
double median(std::vector<double> v);

/// The tail-percentile rule: the highest integer percentile p >= 50
/// that still has at least ten samples beyond its nearest-rank value,
/// capped at 99. Returns 0 when no such percentile exists (fewer than
/// 20 samples).
int tail_percentile(std::size_t n);

/// Nearest-rank percentile `pct` (1..100) of the samples; 0 for none.
double percentile(std::vector<double> v, int pct);

/// `num / base`, defined as 0 when the base is 0 (a layer the workload
/// does not exercise).
double ratio(double num, double base);

/// A timing summarized by the tail-percentile rule.
struct Timing {
  double p50 = 0;
  double tail = 0;
  int tail_pct = 0;  ///< percentile `tail` was read at (50 when none)
  std::size_t n = 0;
};
Timing summarize(const std::vector<double>& samples);

// ---------------------------------------------------------------------
// Output checks

/// Checked operations and how many of them failed their check.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double failed_frac() const { return ratio(double(failed), double(attempted)); }
};

/// What one serve-mix line must get back.
struct Expectation {
  std::string outcome;       ///< verdict ("admitted", "error", ...)
  std::string error_prefix;  ///< for "error": start of the taxonomy message
  double sim_seconds = 0;    ///< from the in-process run of the request
  double result_checksum = 0;
};

/// True when `response_line` carries the expected verdict, taxonomy
/// message, modeled time and result checksum; otherwise false with
/// the first mismatch in `*why`.
bool response_ok(const Expectation& e, const std::string& response_line,
                 std::string* why = nullptr);

// ---------------------------------------------------------------------
// Spans of the traced run

/// Records spans around the benchmark's own calls into the library,
/// in memory, and writes them at the end as a Chrome trace. Spans nest
/// by call order; a span's self time is its duration minus its direct
/// children's. A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;     ///< seconds since the tracer was created
    double duration = -1; ///< negative while the span is open
    std::size_t parent = kNone;
  };
  static constexpr std::size_t kNone = ~std::size_t{0};

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Open a span; returns its id (kNone when disabled).
  std::size_t begin(std::string name);
  /// Close span `id` (the innermost open one).
  void end(std::size_t id);
  /// Rename span `id`, e.g. once a request's kind is known.
  void rename(std::size_t id, std::string name);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, std::string name) : t_(t), id_(t.begin(std::move(name))) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t id_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span, indexed like spans().
  std::vector<double> self_times() const;
  /// Durations of the closed spans called `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Chrome trace document (written through obs::Timeline), each span
  /// carrying its self time and parent in "args".
  fit::obs::json::Value chrome_json() const;
  /// Write chrome_json() to `path`; false when it cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// ---------------------------------------------------------------------
// Metrics and output

/// One reported metric. `samples` is the sample count behind a
/// percentile or median (0 for counts and single measurements) and
/// `pct` the percentile a tail metric was read at.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
  int pct = 0;
};

/// Name and unit of a metric the benchmark defines.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports, in order.
const std::vector<MetricSpec>& end_to_end_metrics();
/// The per-layer metrics every traced run reports, in order.
const std::vector<MetricSpec>& per_layer_metrics();

/// The result of one run.
struct Outcome {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  Tally checks;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  /// Record metric `name` (its unit comes from the spec tables).
  void set(const std::string& name, double value, std::size_t samples = 0,
           int pct = 0);
  /// Record a timing as `<prefix>.p50` and `<prefix>.tail`.
  void set_timing(const std::string& prefix, const Timing& t);
  /// Put the metrics in table order. Throws fit::Error unless exactly
  /// the metrics of the run's table (per-layer when traced, end-to-end
  /// otherwise) were recorded.
  void finish();
};

/// True when `name` matches [A-Za-z0-9_.-]+.
bool valid_metric_name(const std::string& name);

/// The run as a "fourindex.bench/1" document (obs::BenchReport).
fit::obs::json::Value bench_document(const Outcome& o);
/// Human-readable table: metric, value, unit, samples.
std::string human_table(const Outcome& o);
/// The run's one-line JSON result: correct / attempted / failed /
/// metrics {name: {value, unit}}.
std::string result_line(const Outcome& o);

/// Write the traced run's Chrome trace into RunArgs::out_dir and note
/// its path in the outcome.
void write_trace(const Tracer& tr, const RunArgs& args, Outcome& out);

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

}  // namespace perfbench
