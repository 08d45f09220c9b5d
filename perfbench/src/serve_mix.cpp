// The serve-mix workload: one client, one connection at a time, sending
// a seeded NDJSON line mix through serve::Server on a scratch AF_UNIX
// socket. The server runs on a thread of this process. A session is a
// freshly started server (cold schedule cache) taking the whole mix;
// sessions repeat until the run's time is up, so every session has the
// same composition whatever the machine's speed.
//
// Each line of the mix is timed once per session, and its time is the
// fastest of those repeats: contention from the rest of a shared host
// only adds time, and comes and goes over seconds, so among runs made
// under alike host load the fastest repeat varies by a few percent
// where a median swings by 20%. The timing metrics are statistics over
// the mix's lines at those times.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <iterator>
#include <memory>
#include <optional>
#include <thread>

#include "blas/tune.hpp"
#include "chem/molecule.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace json = fit::obs::json;
namespace serve = fit::serve;

namespace {

/// Sessions per run at the least, whatever --seconds says.
constexpr std::size_t kMinSessions = 2;

enum class Kind { Sim, Batch, Real, Plan, Malformed };

/// One line of the mix. Kind::Sim lines are reported as sim_cold or
/// sim_warm by the response's cache_hit.
struct Line {
  std::string text;
  Kind kind;
  Expectation expect;
};

/// Simulate shapes on paper molecules (balance auto, the default),
/// each sent cold once and then `warm` times more. On a 4-core AVX2
/// Xeon the lines' times are under 1 ms (malformed, plan), 4-6 ms
/// (Hyperpolar on 8 nodes), ~17 ms (Hyperpolar on 4 nodes, ~21 ms
/// cold), ~27 ms (warm Real), 34-41 ms (cold Real, Uracil on 2 nodes),
/// ~50 ms (batch) and ~130 ms (Uracil on 4 nodes). Of the 51 lines,
/// the counts put the median (the 26th) and the median of the 41
/// transform lines (the 21st) at 40% and 65% into the block of 20 warm
/// Hyperpolar-on-4-nodes lines, and the tails (p80 of 51: the 41st;
/// p75 of 41: the 31st) on the middle one of the three warm Real
/// lines, so no statistic sits on the edge between two blocks.
struct Shape {
  const char* text;
  int warm;
};
const Shape kShapes[] = {
    {R"({"molecule":"Hyperpolar","system":"A","nodes":4})", 20},
    {R"({"molecule":"Hyperpolar","system":"A","nodes":8,"tile":8})", 7},
    {R"({"molecule":"Uracil","system":"B","nodes":4})", 2},
    {R"({"molecule":"Uracil","system":"B","nodes":2,"tile":8})", 2},
};
const char* const kBatch =
    R"({"molecule":"Hyperpolar","system":"A","nodes":4,"batch":4})";
/// A small Real request; its response carries the result checksum.
constexpr std::size_t kRealN = 24, kRealS = 2, kRealTile = 8;
const char* const kReal =
    R"({"molecule":"custom","n":24,"irrep_order":2,"tile":8,"tile_l":4,"real":true})";
/// plan_only on a shape no other line shares, followed by its release.
const char* const kPlan =
    R"({"molecule":"Uracil","system":"B","nodes":6,"plan_only":true})";

/// Malformed lines and the start of the taxonomy message each must get.
const std::pair<const char*, const char*> kMalformed[] = {
    {"not json", "JSON parse error"},
    {"[1,2]", "request is not a JSON object"},
    {R"({"system":"A"})", "missing string field 'molecule'"},
    {R"({"molecule":"Benzene"})", "unknown molecule 'Benzene'"},
    {R"({"molecule":"Hyperpolar","system":"Z"})", "unknown system 'Z'"},
    {R"({"molecule":"Hyperpolar","balance":"fastest"})",
     "unknown balance mode 'fastest'"},
    {R"({"molecule":"Hyperpolar","nodes":0})",
     "field 'nodes' must be a positive number"},
    {R"({"molecule":"custom","n":1})", "custom molecule needs field 'n' >= 2"},
};

/// The session script for `seed`: a seeded order of the mix's units
/// (a plan_only line and its release form one unit), with each line's
/// expectation taken from an in-process TransformService fed the same
/// script. Tickets are deterministic per fresh service, so the release
/// lines can be written out in advance.
std::vector<Line> make_script(std::uint64_t seed, Tracer& tr) {
  std::vector<std::vector<std::pair<std::string, Kind>>> units;
  for (const Shape& shape : kShapes)
    for (int i = 0; i <= shape.warm; ++i) units.push_back({{shape.text, Kind::Sim}});
  for (int i = 0; i < 2; ++i) units.push_back({{kBatch, Kind::Batch}});
  for (int i = 0; i < 4; ++i) units.push_back({{kReal, Kind::Real}});
  units.push_back({{kPlan, Kind::Plan}, {"release", Kind::Plan}});
  for (const auto& [text, why] : kMalformed)
    units.push_back({{text, Kind::Malformed}});
  fit::SplitMix64 rng(derive_seed(seed, 2));
  for (std::size_t i = units.size(); i > 1; --i)
    std::swap(units[i - 1], units[rng.next_below(i)]);

  serve::TransformService ref{serve::CostOracle{}};
  std::vector<Line> script;
  std::uint64_t ticket = 0;
  for (const auto& unit : units) {
    for (const auto& [text, kind] : unit) {
      Line line{text, kind, {}};
      Tracer::Scope span(tr, "serve.reference (in-process)");
      if (text == "release") {
        line.text = R"({"verb":"release","ticket":)" + std::to_string(ticket) + "}";
        ref.release(ticket);
        line.expect.outcome = "released";
      } else {
        const serve::Response r = ref.submit_line(text);
        ticket = r.ticket;
        line.expect.outcome = kind == Kind::Malformed ? "error" : "admitted";
        line.expect.sim_seconds = r.sim_seconds;
        line.expect.result_checksum = r.result_checksum;
        for (const auto& [bad, msg] : kMalformed)
          if (text == bad) line.expect.error_prefix = msg;
      }
      script.push_back(std::move(line));
    }
  }
  return script;
}

/// A serve::Server on its own thread, stopped by the shutdown verb.
class ServerThread {
 public:
  explicit ServerThread(const std::string& path)
      : server_(std::make_unique<serve::Server>(
            serve::TransformService{serve::CostOracle{}}, path)),
        thread_([this] {
          try {
            server_->serve_forever();
          } catch (...) {
            error_ = std::current_exception();
            failed_ = true;
          }
        }) {}
  ~ServerThread() { stop(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  serve::Server& server() { return *server_; }

  /// Shut the server down and join its thread.
  void stop() {
    if (!thread_.joinable()) return;
    if (!failed_) {
      try {
        serve::Server::request(server_->socket_path(), R"({"verb":"shutdown"})");
      } catch (const std::exception&) {
        // The loop already ended; join below.
      }
    }
    thread_.join();
  }
  /// The accept loop's failure, if any; valid after stop().
  std::exception_ptr error() const { return error_; }

 private:
  std::unique_ptr<serve::Server> server_;
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};
  std::thread thread_;  // last: starts once the members it uses exist
};

/// Reported line kinds, indexed by kind_index().
const char* const kKindNames[] = {"sim_cold", "sim_warm", "batch",
                                  "real",     "plan",     "malformed"};
constexpr std::size_t kKinds = std::size(kKindNames);

/// What the sessions measured.
struct Sessions {
  std::vector<double> setup_s;
  std::vector<std::vector<double>> by_line;  // [script line][session]
  std::vector<bool> warm_real;  // Real lines served from the cache
  std::vector<double> all;      // every round trip
  double real_gemm_calls = 0, real_gemm_flops = 0, real_pack_bytes = 0;
  double sim_s = 0;  // modeled seconds of one session's lines
  double cache_hits = 0, cache_lookups = 0, des_skips = 0, errors = 0,
         rejected = 0;  // one session's serve.* counters
};

std::size_t kind_index(Kind k, bool cache_hit) {
  switch (k) {
    case Kind::Sim: return cache_hit ? 1 : 0;
    case Kind::Batch: return 2;
    case Kind::Real: return 3;
    case Kind::Plan: return 4;
    case Kind::Malformed: return 5;
  }
  return 5;
}

/// Run sessions of `script` for `seconds`, spans into `tr`.
void run_sessions(const std::vector<Line>& script, const std::string& socket,
                  double seconds, Tracer& tr, Tally& checks, Sessions& out) {
  const auto& gm = fit::blas::gemm_metrics();
  out.by_line.assign(script.size(), {});
  out.warm_real.assign(script.size(), false);
  const auto start = Clock::now();
  for (std::size_t session = 0;
       session < kMinSessions || since(start) < seconds; ++session) {
    const auto t0 = Clock::now();
    std::optional<ServerThread> st;
    {
      Tracer::Scope s(tr, "serve.start");
      st.emplace(socket);
    }
    out.setup_s.push_back(since(t0));

    double sim_s = 0;
    for (std::size_t i = 0; i < script.size(); ++i) {
      const Line& line = script[i];
      const double calls0 = gm.sum("gemm.calls"), flops0 = gm.sum("gemm.flops"),
                   pack0 = gm.sum("gemm.pack_bytes");
      const std::size_t id = tr.begin("serve.request");
      const auto t1 = Clock::now();
      std::string rsp;
      try {
        rsp = serve::Server::request(socket, line.text);
      } catch (const std::exception& e) {
        rsp = e.what();  // fails the check below
      }
      const double dt = since(t1);
      tr.end(id);

      json::Value doc;
      try {
        doc = json::parse(rsp);
      } catch (const std::exception&) {
        // Not JSON: the check below reports it.
      }
      const json::Value* hit = doc.find("cache_hit");
      if (const json::Value* sim = doc.find("sim_seconds"); sim && sim->is_number())
        sim_s += sim->as_number();
      const bool cache_hit = hit && hit->is_bool() && hit->as_bool();
      const std::size_t k = kind_index(line.kind, cache_hit);
      tr.rename(id, std::string("serve.request ") + kKindNames[k]);
      out.all.push_back(dt);
      out.by_line[i].push_back(dt);
      if (line.kind == Kind::Real) {
        out.warm_real[i] = cache_hit;
        out.real_gemm_calls = gm.sum("gemm.calls") - calls0;
        out.real_gemm_flops = gm.sum("gemm.flops") - flops0;
        out.real_pack_bytes = gm.sum("gemm.pack_bytes") - pack0;
      }

      Tracer::Scope verify(tr, "verify");
      std::string why;
      const bool ok = response_ok(line.expect, rsp, &why);
      checks.record(ok);
      if (!ok) std::fprintf(stderr, "serve-mix: '%s': %s\n", line.text.c_str(), why.c_str());
    }

    const auto& m = st->server().service().metrics();
    out.sim_s = sim_s;
    out.cache_hits = m.sum("serve.cache_hits");
    out.cache_lookups = out.cache_hits + m.sum("serve.cache_misses");
    out.des_skips = m.sum("serve.des_skips");
    out.errors = m.sum("serve.errors");
    out.rejected = m.sum("serve.rejected");
    Tracer::Scope stop(tr, "serve.shutdown");
    st->stop();
    if (st->error()) std::rethrow_exception(st->error());
  }
}

}  // namespace

Outcome run_serve_mix(const RunArgs& args) {
  Outcome out{args.workload, args.seed, args.trace, {}, {}, {}};
  // Per process, so that concurrent runs sharing an out/ directory
  // never connect to each other's server.
  const std::string socket =
      args.out_dir + "/serve-mix-" + std::to_string(::getpid()) + ".sock";
  Tracer tr(args.trace), untraced(false);
  const std::vector<Line> script = make_script(args.seed, tr);

  Sessions plain;
  run_sessions(script, socket, args.trace ? args.seconds / 2 : args.seconds,
               untraced, out.checks, plain);
  // Each line's time (its fastest repeat), over all lines, over the
  // transform lines and over the warm Real lines (the cold one also
  // plans and runs the balance DES).
  std::vector<double> line_s, transform_s, warm_real_s;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const double t =
        *std::min_element(plain.by_line[i].begin(), plain.by_line[i].end());
    line_s.push_back(t);
    if (script[i].kind != Kind::Plan && script[i].kind != Kind::Malformed)
      transform_s.push_back(t);
    if (plain.warm_real[i]) warm_real_s.push_back(t);
  }
  const double gflops =
      ratio(plain.real_gemm_flops, median(warm_real_s)) / 1e9;

  if (!args.trace) {
    double mix_s = 0;
    for (double s : line_s) mix_s += s;
    out.set("setup_s", median(plain.setup_s), plain.setup_s.size());
    out.set_timing("transform_s", summarize(transform_s));
    out.set_timing("request_s", summarize(line_s));
    out.set("requests_per_s", ratio(double(line_s.size()), mix_s),
            line_s.size());
    out.set("gflops", gflops, warm_real_s.size());
    out.set("sim_s", plain.sim_s);
    out.set("peak_rss_mb", peak_rss_mb());
    out.notes.push_back(std::to_string(script.size()) + " lines per session, " +
                        std::to_string(plain.setup_s.size()) +
                        " sessions; a line's time is its fastest repeat");
    return out;
  }

  Sessions traced;
  run_sessions(script, socket, args.seconds / 2, tr, out.checks, traced);
  const fit::core::Problem real_problem = fit::core::make_problem(
      fit::chem::custom_molecule("serve", kRealN, kRealS));
  const double engine = probe_engine_gflops(tr);
  const double small = probe_small_gemm_gflops(tr, kRealTile);
  const double rate = probe_integral_rate(tr, real_problem);

  out.set("blas.gemm_calls", traced.real_gemm_calls);
  out.set("blas.flops_per_call",
          ratio(traced.real_gemm_flops, traced.real_gemm_calls));
  out.set("blas.pack_bytes", traced.real_pack_bytes);
  out.set("blas.engine_gflops", engine, 5);
  out.set("blas.small_gemm_gflops", small, 5);
  out.set("blas.fraction_of_engine", ratio(gflops, engine));
  out.set("chem.integral_rate", rate, 3);
  for (const char* name :
       {"chem.integral_evals", "chem.share", "ga.ops", "ga.remote_bytes",
        "ga.peak_global_bytes", "runtime.phases", "runtime.imbalance",
        "runtime.exposed_s", "runtime.cluster_s", "runtime.host_scaling",
        "core.transform_s", "core.seq_gflops", "core.par_over_seq"})
    out.set(name, 0);
  out.set("serve.cache_hit_ratio", ratio(traced.cache_hits, traced.cache_lookups));
  out.set("serve.cache_lookups", traced.cache_lookups);
  out.set("serve.des_skips", traced.des_skips);
  out.set("serve.errors", traced.errors);
  out.set("serve.rejected", traced.rejected);
  for (std::size_t k = 0; k < kKinds; ++k) {
    const std::vector<double> d =
        tr.durations(std::string("serve.request ") + kKindNames[k]);
    out.set(std::string("serve.kind.") + kKindNames[k] + "_s", median(d),
            d.size());
  }
  out.set("obs.trace_overhead", ratio(median(traced.all), median(plain.all)));
  out.notes.push_back(
      "chem.integral_evals, chem.share, ga.*, runtime.* and core.* are 0: the "
      "service's transforms run behind the socket, out of the benchmark's "
      "reach; blas.* deltas are per Real request line");
  write_trace(tr, args, out);
  return out;
}

}  // namespace perfbench
