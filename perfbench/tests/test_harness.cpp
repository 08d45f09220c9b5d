// Unit tests of the benchmark's own code: the tail-percentile rule,
// ratios, output checks, span self times and the output documents.
#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <sstream>

#include "harness.hpp"
#include "obs/bench_json.hpp"
#include "util/error.hpp"

namespace {

using namespace perfbench;
namespace json = fit::obs::json;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

/// An outcome carrying every metric of its table.
Outcome full_outcome(bool trace) {
  Outcome o;
  o.workload = "unit";
  o.seed = 7;
  o.trace = trace;
  o.checks.record(true);
  double v = 1;
  for (const MetricSpec& m : trace ? per_layer_metrics() : end_to_end_metrics())
    o.set(m.name, v++, 12, 50);
  return o;
}

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(50), 80);
  EXPECT_EQ(tail_percentile(20), 50);
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(100000), 99);
  EXPECT_EQ(tail_percentile(19), 0);
  EXPECT_EQ(tail_percentile(0), 0);
}

TEST(TailPercentile, LeavesTenSamplesBeyondAndNoHigherPercentileDoes) {
  for (std::size_t n = 20; n <= 400; ++n) {
    const std::vector<double> v = one_to(n);
    const int p = tail_percentile(n);
    const double value = percentile(v, p);
    EXPECT_GE(std::count_if(v.begin(), v.end(), [&](double x) { return x > value; }),
              10)
        << "n=" << n;
    if (p < 99) {
      const double next = percentile(v, p + 1);
      EXPECT_LT(std::count_if(v.begin(), v.end(), [&](double x) { return x > next; }),
                10)
          << "n=" << n;
    }
  }
}

TEST(TailPercentile, FewSamplesFallBackToTheMedian) {
  const Timing t = summarize({3, 1, 2, 5});
  EXPECT_EQ(t.n, 4u);
  EXPECT_EQ(t.tail_pct, 50);
  EXPECT_EQ(t.p50, 2.5);
  EXPECT_EQ(t.tail, t.p50);
  const Timing big = summarize(one_to(100));
  EXPECT_EQ(big.tail_pct, 90);
  EXPECT_EQ(big.tail, 90);
  EXPECT_EQ(big.p50, 50.5);
}

TEST(Ratio, ZeroBaseIsZero) {
  EXPECT_EQ(ratio(6, 3), 2);
  EXPECT_EQ(ratio(5, 0), 0);
  EXPECT_EQ(ratio(0, 0), 0);
  Tally none;
  EXPECT_EQ(none.failed_frac(), 0);
  Tally some;
  some.record(true);
  some.record(false);
  some.record(true);
  some.record(true);
  EXPECT_EQ(some.failed_frac(), 0.25);
}

TEST(Checks, WrongExpectedChecksumCountsAsFailed) {
  const std::string rsp =
      R"({"outcome":"admitted","sim_seconds":0.5,"result_checksum":1234,"error":""})";
  Tally t;
  t.record(response_ok({"admitted", "", 0.5, 1234}, rsp));
  EXPECT_EQ(t.failed, 0u);
  std::string why;
  const bool ok = response_ok({"admitted", "", 0.5, 4321}, rsp, &why);
  t.record(ok);
  EXPECT_FALSE(ok);
  EXPECT_NE(why.find("result_checksum"), std::string::npos);
  EXPECT_EQ(t.attempted, 2u);
  EXPECT_EQ(t.failed, 1u);
}

TEST(Checks, VerdictTaxonomyAndModeledTime) {
  const std::string err =
      R"({"outcome":"error","error":"unknown molecule 'Benzene'"})";
  EXPECT_TRUE(response_ok({"error", "unknown molecule", 0, 0}, err));
  EXPECT_FALSE(response_ok({"error", "unknown system", 0, 0}, err));
  EXPECT_FALSE(response_ok({"admitted", "", 0, 0}, err));
  EXPECT_FALSE(response_ok(
      {"admitted", "", 0.25, 0},
      R"({"outcome":"admitted","sim_seconds":0.5,"result_checksum":0,"error":""})"));
  EXPECT_FALSE(response_ok({"admitted", "", 0, 0}, "not json"));
}

TEST(Tracer, SelfTimeIsDurationMinusDirectChildren) {
  Tracer tr(true);
  {
    Tracer::Scope parent(tr, "parent");
    { Tracer::Scope a(tr, "child"); }
    {
      Tracer::Scope b(tr, "child");
      Tracer::Scope g(tr, "grandchild");
    }
  }
  ASSERT_EQ(tr.spans().size(), 4u);
  const auto self = tr.self_times();
  const auto& s = tr.spans();
  EXPECT_EQ(s[1].parent, 0u);
  EXPECT_EQ(s[3].parent, 2u);
  EXPECT_NEAR(self[0] + s[1].duration + s[2].duration, s[0].duration, 1e-12);
  EXPECT_NEAR(self[2] + s[3].duration, s[2].duration, 1e-12);
  EXPECT_EQ(self[3], s[3].duration);
  EXPECT_EQ(tr.durations("child").size(), 2u);

  const json::Value doc = tr.chrome_json();
  const json::Value& ev = *doc.find("traceEvents");
  std::size_t spans = 0;
  for (std::size_t i = 0; i < ev.size(); ++i)
    if (ev.at(i).find("ph")->as_string() == "X") {
      ++spans;
      ASSERT_NE(ev.at(i).find("args"), nullptr);
      EXPECT_NE(ev.at(i).find("args")->find("self_ms"), nullptr);
    }
  EXPECT_EQ(spans, 4u);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tr(false);
  { Tracer::Scope s(tr, "x"); }
  EXPECT_TRUE(tr.spans().empty());
}

TEST(Output, BenchDocumentIsSchemaValidWithValidNames) {
  for (bool trace : {false, true}) {
    Outcome o = full_outcome(trace);
    o.finish();
    const json::Value doc = bench_document(o);
    std::string why;
    EXPECT_TRUE(fit::obs::validate_bench_json(doc, &why)) << why;
    const json::Value& scalars = *doc.find("scalars");
    for (std::size_t i = 0; i < scalars.size(); ++i)
      EXPECT_TRUE(valid_metric_name(scalars.member(i).first))
          << scalars.member(i).first;
  }
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("x/y"));
}

TEST(Output, IncompleteOrUnknownMetricsAreRejected) {
  Outcome o = full_outcome(false);
  o.metrics.pop_back();
  EXPECT_THROW(o.finish(), fit::Error);
  Outcome twice = full_outcome(false);
  twice.metrics.push_back(twice.metrics.front());
  EXPECT_THROW(twice.finish(), fit::Error);
  EXPECT_THROW(o.set("no.such.metric", 1), fit::Error);
}

TEST(Output, ResultLineHasExactlyFourKeys) {
  Outcome o = full_outcome(false);
  json::Value line = json::parse(result_line(o));
  ASSERT_EQ(line.size(), 4u);
  EXPECT_TRUE(line.find("correct")->as_bool());
  EXPECT_EQ(line.find("attempted")->as_number(), 1);
  EXPECT_EQ(line.find("failed")->as_number(), 0);
  const json::Value& m = *line.find("metrics");
  EXPECT_EQ(m.size(), end_to_end_metrics().size());
  EXPECT_EQ(m.find("setup_s")->find("unit")->as_string(), "s");
  o.checks.record(false);
  line = json::parse(result_line(o));
  EXPECT_FALSE(line.find("correct")->as_bool());
  EXPECT_EQ(line.find("failed")->as_number(), 1);
}

TEST(Output, BenchmarkJsonListsTheMetricTables) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  auto expect_same = [](const json::Value& listed,
                        const std::vector<MetricSpec>& specs) {
    ASSERT_EQ(listed.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(listed.at(i).find("name")->as_string(), specs[i].name);
      EXPECT_EQ(listed.at(i).find("unit")->as_string(), specs[i].unit);
    }
  };
  expect_same(*doc.find("end_to_end"), end_to_end_metrics());
  expect_same(*doc.find("per_layer"), per_layer_metrics());
}

}  // namespace
