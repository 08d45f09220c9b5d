// fourindex_perfbench: runs one benchmark workload and prints its
// metrics, ending with the one-line JSON result.
//
//   fourindex_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       [--out-dir DIR]
//
// Exit status 0 when the run completed (its checks decide "correct"),
// 1 when it could not run, 2 on a usage error.
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/bench_json.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "fourindex_perfbench: " << why
            << "\nusage: fourindex_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\nworkloads:";
  for (const auto& w : perfbench::workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A client must survive a peer that hangs up mid-write.
  std::signal(SIGPIPE, SIG_IGN);

  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      const auto v = fit::util::parse_int(value);
      if (!v || *v < 0) return usage("bad --seed " + value);
      args.seed = static_cast<std::uint64_t>(*v);
    } else if (flag == "--seconds") {
      const auto v = fit::util::parse_double(value);
      if (!v || !(*v > 0)) return usage("bad --seconds " + value);
      args.seconds = *v;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  const perfbench::Workload* workload = nullptr;
  for (const auto& w : perfbench::workloads())
    if (args.workload == w.name) workload = &w;
  if (!workload) return usage("unknown workload '" + args.workload + "'");

  try {
    std::filesystem::create_directories(args.out_dir);
    perfbench::Outcome out = workload->run(args);
    out.finish();
    const fit::obs::json::Value doc = perfbench::bench_document(out);
    std::string why;
    if (!fit::obs::validate_bench_json(doc, &why))
      throw std::runtime_error("bench document invalid: " + why);
    const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) +
                             (args.trace ? "-trace" : "") + ".bench.json";
    std::ofstream(path) << doc.dump(2) << '\n';
    std::cout << perfbench::human_table(out) << "bench document: " << path
              << '\n'
              << perfbench::result_line(out) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fourindex_perfbench: " << e.what() << '\n';
    return 1;
  }
}
