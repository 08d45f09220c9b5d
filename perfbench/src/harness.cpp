#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/bench_json.hpp"
#include "obs/timeline.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace json = fit::obs::json;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  fit::SplitMix64 g(seed * 0x9E3779B97F4A7C15ull ^ stream);
  return g.next_u64();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

int tail_percentile(std::size_t n) {
  if (n < 20) return 0;
  // Nearest rank of percentile p is ceil(p n / 100); at least ten
  // samples lie beyond it iff p <= 100 (n - 10) / n.
  const auto p = static_cast<int>((100 * (n - 10)) / n);
  return std::min(p, 99);
}

double percentile(std::vector<double> v, int pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
  return v[std::clamp<std::size_t>(rank, 1, n) - 1];
}

double ratio(double num, double base) { return base == 0 ? 0 : num / base; }

Timing summarize(const std::vector<double>& samples) {
  Timing t;
  t.n = samples.size();
  t.p50 = median(samples);
  t.tail_pct = tail_percentile(t.n);
  if (t.tail_pct == 0) {
    t.tail_pct = 50;
    t.tail = t.p50;
  } else {
    t.tail = percentile(samples, t.tail_pct);
  }
  return t;
}

// ---------------------------------------------------------------------

bool response_ok(const Expectation& e, const std::string& response_line,
                 std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  json::Value doc;
  try {
    doc = json::parse(response_line);
  } catch (const fit::Error& err) {
    return fail(std::string("unparseable response: ") + err.what());
  }
  auto str = [&](const char* key) {
    const json::Value* v = doc.find(key);
    return v && v->is_string() ? v->as_string() : std::string();
  };
  auto num = [&](const char* key) {
    const json::Value* v = doc.find(key);
    return v && v->is_number() ? v->as_number() : 0.0;
  };
  if (str("outcome") != e.outcome)
    return fail("outcome '" + str("outcome") + "', expected '" + e.outcome +
                "'");
  if (str("error").rfind(e.error_prefix, 0) != 0)
    return fail("error '" + str("error") + "', expected '" + e.error_prefix +
                "...'");
  if (num("sim_seconds") != e.sim_seconds)
    return fail("sim_seconds " + std::to_string(num("sim_seconds")) +
                " differs from the in-process run's " +
                std::to_string(e.sim_seconds));
  if (num("result_checksum") != e.result_checksum)
    return fail("result_checksum " + std::to_string(num("result_checksum")) +
                " differs from the in-process run's " +
                std::to_string(e.result_checksum));
  return true;
}

// ---------------------------------------------------------------------

std::size_t Tracer::begin(std::string name) {
  if (!enabled_) return kNone;
  const std::size_t parent = open_.empty() ? kNone : open_.back();
  spans_.push_back({std::move(name), since(t0_), -1, parent});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  if (id == kNone) return;
  FIT_REQUIRE(!open_.empty() && open_.back() == id,
              "spans must close innermost first");
  spans_[id].duration = since(t0_) - spans_[id].start;
  open_.pop_back();
}

void Tracer::rename(std::size_t id, std::string name) {
  if (id != kNone) spans_[id].name = std::move(name);
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += std::max(0.0, spans_[i].duration);
    if (spans_[i].parent != kNone)
      self[spans_[i].parent] -= std::max(0.0, spans_[i].duration);
  }
  return self;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.duration >= 0) out.push_back(s.duration);
  return out;
}

json::Value Tracer::chrome_json() const {
  fit::obs::Timeline timeline;
  for (const Span& s : spans_)
    timeline.add_span(timeline.intern(s.name), 0, s.start,
                      std::max(0.0, s.duration));
  const json::Value doc = timeline.to_chrome_json("perfbench");
  // The timeline emits the spans in recording order after its metadata
  // events; attach each span's self time and parent as Chrome args.
  const std::vector<double> self = self_times();
  json::Value events = json::Value::array();
  const json::Value& in = *doc.find("traceEvents");
  std::size_t span = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    json::Value e = in.at(i);
    if (const json::Value* ph = e.find("ph"); ph && ph->as_string() == "X") {
      e["args"]["self_ms"] = self[span] * 1e3;
      e["args"]["parent"] = spans_[span].parent == kNone
                                ? std::string("-")
                                : spans_[spans_[span].parent].name;
      ++span;
    }
    events.push_back(std::move(e));
  }
  json::Value out = json::Value::object();
  out["traceEvents"] = std::move(events);
  out["displayTimeUnit"] = "ms";
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  out << chrome_json().dump() << '\n';
  return out.good();
}

// ---------------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"transform_s.p50", "s"},
      {"transform_s.tail", "s"},
      {"request_s.p50", "s"},
      {"request_s.tail", "s"},
      {"requests_per_s", "1/s"},
      {"gflops", "GFLOP/s"},
      {"sim_s", "model-s"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"blas.gemm_calls", "count"},
      {"blas.flops_per_call", "flop"},
      {"blas.pack_bytes", "B"},
      {"blas.engine_gflops", "GFLOP/s"},
      {"blas.small_gemm_gflops", "GFLOP/s"},
      {"blas.fraction_of_engine", "ratio"},
      {"chem.integral_evals", "count"},
      {"chem.integral_rate", "1/s"},
      {"chem.share", "ratio"},
      {"ga.ops", "count"},
      {"ga.remote_bytes", "model-B"},
      {"ga.peak_global_bytes", "B"},
      {"runtime.phases", "count"},
      {"runtime.imbalance", "ratio"},
      {"runtime.exposed_s", "model-s"},
      {"runtime.cluster_s", "s"},
      {"runtime.host_scaling", "ratio"},
      {"core.transform_s", "s"},
      {"core.seq_gflops", "GFLOP/s"},
      {"core.par_over_seq", "ratio"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_lookups", "count"},
      {"serve.des_skips", "count"},
      {"serve.errors", "count"},
      {"serve.rejected", "count"},
      {"serve.kind.sim_cold_s", "s"},
      {"serve.kind.sim_warm_s", "s"},
      {"serve.kind.batch_s", "s"},
      {"serve.kind.real_s", "s"},
      {"serve.kind.plan_s", "s"},
      {"serve.kind.malformed_s", "s"},
      {"obs.trace_overhead", "ratio"},
  };
  return specs;
}

namespace {

const std::vector<MetricSpec>& table_for(bool trace) {
  return trace ? per_layer_metrics() : end_to_end_metrics();
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

void Outcome::set(const std::string& name, double value, std::size_t samples,
                  int pct) {
  const auto& specs = table_for(trace);
  const auto it = std::find_if(specs.begin(), specs.end(),
                               [&](const MetricSpec& s) { return name == s.name; });
  FIT_REQUIRE(it != specs.end() && valid_metric_name(name),
              "metric '" + name + "' is not defined");
  FIT_REQUIRE(std::isfinite(value), "metric '" + name + "' is not finite");
  metrics.push_back({name, value, it->unit, samples, pct});
}

void Outcome::set_timing(const std::string& prefix, const Timing& t) {
  set(prefix + ".p50", t.p50, t.n, 50);
  set(prefix + ".tail", t.tail, t.n, t.tail_pct);
}

void Outcome::finish() {
  const auto& specs = table_for(trace);
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : specs)
    for (const Metric& m : metrics)
      if (m.name == spec.name) ordered.push_back(m);
  FIT_REQUIRE(ordered.size() == metrics.size() && metrics.size() == specs.size(),
              "run did not report its metric table exactly once each");
  metrics = std::move(ordered);
}

bool valid_metric_name(const std::string& name) {
  return !name.empty() &&
         std::all_of(name.begin(), name.end(), [](char c) {
           return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == '.' || c == '-';
         });
}

namespace {

fit::TextTable metrics_table(const Outcome& o) {
  fit::TextTable table({"metric", "value", "unit", "samples", "percentile"});
  for (const Metric& m : o.metrics)
    table.add_row({m.name, fmt(m.value), m.unit,
                   m.samples ? std::to_string(m.samples) : "-",
                   m.pct ? "p" + std::to_string(m.pct) : "-"});
  return table;
}

}  // namespace

json::Value bench_document(const Outcome& o) {
  fit::obs::BenchReport report("perfbench." + o.workload);
  for (const Metric& m : o.metrics) {
    report.add_scalar(m.name, m.value);
    if (m.samples) report.add_scalar(m.name + ".samples", double(m.samples));
  }
  report.add_scalar("seed", double(o.seed));
  report.add_scalar("attempted", double(o.checks.attempted));
  report.add_scalar("failed", double(o.checks.failed));
  report.add_scalar("failed_frac", o.checks.failed_frac());
  report.add_table(o.trace ? "per-layer metrics" : "end-to-end metrics",
                   metrics_table(o));
  report.add_note("workload " + o.workload + ", seed " + std::to_string(o.seed) +
                  (o.trace ? ", traced" : ", untraced"));
  for (const std::string& n : o.notes) report.add_note(n);
  return report.to_json();
}

std::string human_table(const Outcome& o) {
  return metrics_table(o).str(
      o.workload + " (seed " + std::to_string(o.seed) + "): " +
      std::to_string(o.checks.failed) + " of " +
      std::to_string(o.checks.attempted) +
      " checked operations failed, failed_frac " +
      fmt(o.checks.failed_frac()));
}

std::string result_line(const Outcome& o) {
  json::Value doc = json::Value::object();
  doc["correct"] = o.checks.failed == 0 && o.checks.attempted > 0;
  doc["attempted"] = o.checks.attempted;
  doc["failed"] = o.checks.failed;
  json::Value metrics = json::Value::object();
  for (const Metric& m : o.metrics) {
    metrics[m.name]["value"] = m.value;
    metrics[m.name]["unit"] = m.unit;
  }
  doc["metrics"] = std::move(metrics);
  return doc.dump();
}

void write_trace(const Tracer& tr, const RunArgs& args, Outcome& out) {
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  out.notes.push_back(tr.write_chrome(path) ? "Chrome trace: " + path
                                            : "could not write " + path);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
