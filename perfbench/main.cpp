// perfbench — one phase of one benchmark workload per process. run.py in
// this directory drives the phases and prints the benchmark's result; run
// this binary directly only to debug a phase:
//
//   perfbench --phase train|prep|measure --workload NAME --seed N
//             --seconds S --trace 0|1 --work DIR
//
// The last line of stdout is one JSON object (see Result::to_json). With
// --trace 1 the obs registry is enabled and every benchmark span is kept in
// memory, then written to DIR/spans-<phase>.jsonl at exit.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "perfbench.hpp"
#include "simd/dispatch.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const hdc::util::Cli cli(argc, argv);
  perfbench::RunOptions options;
  const std::string phase = cli.get_string("--phase", "");
  options.workload = cli.get_string("--workload", "");
  options.seed = cli.get_uint("--seed", 2023);
  options.seconds = cli.get_double("--seconds", 10.0);
  options.traced = cli.get_int("--trace", 0) != 0;
  options.work_dir = cli.get_string("--work", "");

  const bool train = phase == "train" && options.workload == "train_golden";
  const bool serve =
      (phase == "prep" || phase == "measure") &&
      (options.workload == "serve_golden" || options.workload == "serve_cohort_ann");
  if ((!train && !serve) || options.work_dir.empty() || options.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --phase train --workload train_golden | --phase "
                 "prep|measure --workload serve_golden|serve_cohort_ann; plus --seed "
                 "N --seconds S --trace 0|1 --work DIR\n");
    return 2;
  }
  std::filesystem::create_directories(options.work_dir);

  hdc::obs::set_enabled(options.traced);
  perfbench::Tracer& tracer = perfbench::Tracer::get();
  if (options.traced) tracer.enable();

  perfbench::Result result;
  double wall_s = 0.0;
  {
    perfbench::Span root("bench.process");
    try {
      if (train) {
        perfbench::run_train_golden(options, result);
      } else if (phase == "prep") {
        perfbench::run_serve_prep(options, result);
      } else {
        perfbench::run_serve_measure(options, result);
      }
    } catch (const std::exception& e) {
      result.check(false, std::string("exception: ") + e.what());
    }
    wall_s = root.stop();
  }
  if (phase != "prep") result.e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  result.info["phase"] = phase;
  result.info["simd_tier"] = hdc::simd::tier_name(hdc::simd::active_tier());
  result.info["hardware_threads"] = std::to_string(hdc::parallel::hardware_threads());
  result.info["digest"] = result.digest.hex();

  if (options.traced) {
    for (const auto& [layer, seconds] : tracer.self_seconds_by_layer()) {
      result.layer(layer + ".self_s", seconds, "s");
    }
    result.layer("bench.wall_s", wall_s, "s");
    const std::string path =
        (std::filesystem::path(options.work_dir) / ("spans-" + phase + ".jsonl")).string();
    if (tracer.write(path)) {
      result.info["spans_file"] = path;
      result.info["spans"] = std::to_string(tracer.spans().size());
    } else {
      result.check(false, "cannot write spans to " + path);
    }
  }
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
