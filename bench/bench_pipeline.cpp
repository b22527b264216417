// Streaming pipeline benchmark: N sequential single-image network runs
// (crossbars reprogrammed per Design::run call — the paper's evaluation
// style) vs the streaming batched executor (stack programmed once, images
// pipelined across stages), emitted as BENCH_pipeline.json. Run through
// tools/run_bench.sh, or directly:
//
//   bench_pipeline [--quick] [--out BENCH_pipeline.json] [--net dcgan|sngan|fcn8s]
//                  [--div N] [--design zp|pf|red] [--images N] [--threads N]
//
// The run is gated: streaming outputs and per-stage RunStats must be
// bit-identical to the sequential chain, every (image, stage) execution is
// consistency-checked against the analytic activity model, and the analytic
// evaluate_pipeline() quantities must agree with their own stage reports.
// --quick is the bench_smoke CTest configuration.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "red/common/error.h"
#include "red/common/flags.h"
#include "red/common/rng.h"
#include "red/common/string_util.h"
#include "red/core/designs.h"
#include "red/report/json.h"
#include "red/sim/pipeline.h"
#include "red/sim/streaming.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"

int main(int argc, char** argv) try {
  using namespace red;
  using bench::Clock;
  using bench::Entry;
  using bench::ms_since;
  const Flags flags = Flags::parse(argc - 1, argv + 1);
  const bool quick = flags.get_bool("quick");
  const std::string out_path = flags.get_string("out", "BENCH_pipeline.json");
  const std::string net = flags.get_string("net", quick ? "sngan" : "dcgan");
  const int div = static_cast<int>(flags.get_int("div", quick ? 32 : 16));
  const std::string design_flag = flags.get_string("design", "red");
  const int images_n = static_cast<int>(flags.get_int("images", quick ? 3 : 8));
  const int threads = static_cast<int>(flags.get_int("threads", 4));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const int reps = quick ? 1 : 3;
  if (images_n < 1) throw ConfigError("--images must be >= 1");
  if (threads < 1) throw ConfigError("--threads must be >= 1");

  const core::DesignKind kind = core::kind_from_name(design_flag);
  const auto stack = workloads::named_stack(net, div);

  bench::print_header("Streaming batched execution: sequential per-image runs vs the pipeline",
                      "scale extension — see docs/PERFORMANCE.md");

  arch::DesignConfig cfg;
  const auto kernels = workloads::make_stack_kernels(stack, seed);
  const auto images = workloads::make_input_batch(stack[0], images_n, seed);

  std::vector<Entry> entries;

  // ---- Before: N sequential single-image chains, reprogram-per-run --------
  const auto design = core::make_design(kind, cfg);
  std::vector<Tensor<std::int32_t>> seq_outputs(images.size());
  std::vector<std::vector<arch::RunStats>> seq_stats(
      images.size(), std::vector<arch::RunStats>(stack.size()));
  double seq_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < images.size(); ++k) {
      Tensor<std::int32_t> in = images[k];
      for (std::size_t i = 0; i < stack.size(); ++i) {
        Tensor<std::int32_t> out = design->run(stack[i], in, kernels[i], &seq_stats[k][i]);
        if (i + 1 < stack.size())
          in = sim::requantize_activations(out, cfg.quant.abits);
        else
          seq_outputs[k] = std::move(out);
      }
    }
    const double t_ms = ms_since(t0);
    seq_ms = r == 0 ? t_ms : std::min(seq_ms, t_ms);
  }
  entries.push_back({"BM_SequentialPerImage_n" + std::to_string(images_n), seq_ms, reps});

  // ---- After: program once, stream the batch ------------------------------
  const auto t_prog = Clock::now();
  const sim::StreamingExecutor executor(kind, cfg, stack, kernels);
  const double program_ms = ms_since(t_prog);

  // Gate run first (per-cell activity checks on), then timed reps with the
  // checks off — the sequential baseline above runs unchecked, so the timed
  // comparison must too. Outputs and stats are identical either way
  // (determinism contract), so the gates below read the checked run.
  sim::StreamingOptions checked;
  checked.threads = threads;
  checked.check = true;
  const sim::StreamingBatchResult gated = executor.stream(images, checked);
  sim::StreamingOptions opts;
  opts.threads = threads;
  opts.check = false;
  sim::StreamingBatchResult streamed;
  double stream_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto res = executor.stream(images, opts);
    const double t_ms = res.wall_ms;
    if (r == 0 || t_ms < stream_ms) {
      stream_ms = t_ms;
      streamed = std::move(res);
    }
  }
  entries.push_back({"BM_StreamingPipelined_n" + std::to_string(images_n) + "_t" +
                         std::to_string(threads),
                     stream_ms, reps});

  // ---- Gate 1: streaming must be bit-identical to the sequential chain ----
  // (checked against both the gated run and the unchecked timed run, which
  // must themselves agree bit-for-bit)
  bool bit_identical = true;
  for (std::size_t k = 0; k < images.size(); ++k) {
    if (!first_mismatch(seq_outputs[k], streamed.images[k].output).empty()) bit_identical = false;
    if (!first_mismatch(gated.images[k].output, streamed.images[k].output).empty())
      bit_identical = false;
    for (std::size_t i = 0; i < stack.size(); ++i)
      if (!(seq_stats[k][i] == streamed.images[k].layer_stats[i]) ||
          !(gated.images[k].layer_stats[i] == streamed.images[k].layer_stats[i]))
        bit_identical = false;
  }
  if (!bit_identical) {
    red::log_error("streaming executor deviates from the sequential chain");
    return 1;
  }

  // ---- Gate 2: the analytic pipeline model must agree with its stages -----
  const auto model = sim::evaluate_pipeline(kind, stack, cfg);
  double model_seq = 0.0, model_slowest = 0.0;
  for (const auto& s : model.stages) {
    model_seq += s.cost.total_latency().value();
    model_slowest = std::max(model_slowest, s.cost.total_latency().value());
  }
  const bool model_consistent = model.stages.size() == stack.size() &&
                                model.initiation_interval.value() == model_slowest &&
                                model.fill_latency.value() == model_seq;
  if (!model_consistent) {
    red::log_error("evaluate_pipeline quantities disagree with its own stage reports");
    return 1;
  }

  const double speedup = stream_ms > 0.0 ? seq_ms / stream_ms : 0.0;
  const double images_per_s = stream_ms > 0.0 ? 1e3 * images_n / stream_ms : 0.0;
  const double model_speedup =
      model.pipelined_latency(images_n).value() > 0.0
          ? model_seq * images_n / model.pipelined_latency(images_n).value()
          : 0.0;

  std::cout << net << " (div " << div << ") on " << streamed.design_name << ", "
            << images_n << " images, " << stack.size() << " stages:\n"
            << "sequential per-image " << format_double(seq_ms, 2) << " ms, streaming "
            << format_double(stream_ms, 2) << " ms (" << format_speedup(speedup) << " at "
            << threads << " threads; program-once " << format_double(program_ms, 2)
            << " ms)\n"
            << "fill " << format_double(streamed.fill_ms(), 2) << " ms, steady interval "
            << format_double(streamed.steady_interval_ms(), 3) << " ms/img, "
            << format_double(images_per_s, 0) << " img/s measured\n"
            << "model: fill " << format_double(model.fill_latency.value() / 1e3, 2)
            << " us, interval " << format_double(model.initiation_interval.value() / 1e3, 2)
            << " us, " << format_double(model.throughput_img_per_s(), 0)
            << " img/s, pipelined speedup " << format_speedup(model_speedup) << " over "
            << images_n << " sequential images\n"
            << "gates: bit-identical vs sequential chain PASS, per-stage activity "
               "consistency PASS, analytic model consistency PASS\n";

  std::ostringstream out;
  const auto num = [](double v) { return red::report::json_number(v); };
  out << "{\n  \"context\": {\"net\": \"" << net << "\", \"design\": \""
      << streamed.design_name << "\", \"images\": " << images_n
      << ", \"stages\": " << stack.size() << ", \"div\": " << div
      << ", \"threads\": " << threads << ", \"quick\": " << (quick ? "true" : "false")
      << "},\n  \"benchmarks\": ";
  bench::write_benchmark_array(out, entries);
  out << ",\n  \"throughput\": {\"program_ms\": " << num(program_ms)
      << ", \"fill_ms\": " << num(streamed.fill_ms())
      << ", \"steady_interval_ms\": " << num(streamed.steady_interval_ms())
      << ", \"images_per_s\": " << num(images_per_s)
      << ", \"speedup_vs_sequential\": " << num(speedup)
      << "},\n  \"model\": {\"fill_ns\": " << num(model.fill_latency.value())
      << ", \"initiation_interval_ns\": " << num(model.initiation_interval.value())
      << ", \"images_per_s\": " << num(model.throughput_img_per_s())
      << ", \"pipelined_speedup\": " << num(model_speedup)
      << "},\n  \"equivalence\": {\"bit_identical_vs_sequential\": true"
      << ", \"programmed_fast_path\": " << (streamed.programmed_fast_path ? "true" : "false")
      << ", \"model_consistent\": true}\n}\n";
  if (!bench::write_report_file(out_path, out.str())) return 1;
  return 0;
} catch (const std::exception& e) {
  red::log_error(e.what());
  return 2;
}
