// The two streaming workloads: whole deconvolution stacks driven through
// sim::StreamingExecutor, every streamed image checked against a chain of
// nn::deconv_reference + sim::requantize_activations.
//
//   red-stream-exact  dcgan/div4 on RED, exact ideal-ADC path, 2 wave lanes,
//                     activity check on (what `red_cli throughput` runs).
//   baseline-bitacc   sngan/div4 through zero-padding and then padding-free,
//                     bit-accurate with ideal ADC, 1 lane. One item is one
//                     image through both designs.
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "harness.h"
#include "red/arch/design.h"
#include "red/common/error.h"
#include "red/core/designs.h"
#include "red/fault/campaign.h"
#include "red/nn/deconv_reference.h"
#include "red/plan/plan.h"
#include "red/sim/engine.h"
#include "red/sim/streaming.h"
#include "red/tensor/tensor_ops.h"
#include "red/workloads/generator.h"
#include "red/workloads/networks.h"

namespace e2e {
namespace {

using red::Tensor;
using Image = Tensor<std::int32_t>;

struct Case {
  const char* tag;  ///< metric-name tag of the design: red | zp | pf
  red::core::DesignKind kind;
  red::arch::DesignConfig cfg;
};

struct StreamWorkload {
  std::string net;
  int div = 4;
  std::vector<Case> cases;  ///< designs one item passes through, in order
  int lanes = 1;
  int pool = 8;   ///< distinct seeded images (each has a reference output)
  int batch = 8;  ///< images per stream() call, cycling through the pool
};

/// The stack's reference: per-stage inputs (for the zero-fraction property)
/// and the final output of every pool image.
struct Reference {
  std::vector<Image> outputs;
  std::vector<double> input_zero_fraction;  ///< per stage, over the pool
};

Reference reference_chain(const std::vector<red::nn::DeconvLayerSpec>& stack,
                          const std::vector<Image>& kernels, const std::vector<Image>& pool,
                          int abits) {
  Reference ref;
  ref.input_zero_fraction.assign(stack.size(), 0.0);
  for (const auto& image : pool) {
    Image in = image;
    for (std::size_t i = 0; i < stack.size(); ++i) {
      ref.input_zero_fraction[i] += static_cast<double>(red::count_zeros(in)) /
                                    static_cast<double>(in.size() * std::ssize(pool));
      Image out = red::nn::deconv_reference(stack[i], in, kernels[i]);
      in = i + 1 < stack.size() ? red::sim::requantize_activations(out, abits) : std::move(out);
    }
    ref.outputs.push_back(std::move(in));
  }
  return ref;
}

/// Modelled energy of one image: arch::measured_cost over each stage's RunStats.
double energy_uj(const red::sim::StreamingExecutor& exec,
                 const red::sim::StreamingImageResult& image) {
  double pj = 0.0;
  for (std::size_t i = 0; i < exec.depth(); ++i)
    pj += red::arch::measured_cost(exec.predicted(i), image.layer_stats[i],
                                   exec.stack_plan().cfg)
              .total_energy()
              .value();
  return pj / 1e6;
}

/// Host latency of image k: its `depth` waves in flight, so pipeline fill
/// is never a sample of its own.
double image_latency_ms(const red::sim::StreamingBatchResult& r, std::size_t k) {
  const auto first = r.wave_ms.begin() + static_cast<std::ptrdiff_t>(k);
  return std::accumulate(first, first + static_cast<std::ptrdiff_t>(r.depth), 0.0);
}

struct Inputs {
  std::vector<red::nn::DeconvLayerSpec> stack;
  std::vector<Image> kernels;
  std::vector<Image> pool;
  std::vector<Image> batch;
  Reference ref;
};

Inputs make_inputs(const StreamWorkload& w, std::uint64_t seed) {
  Inputs in;
  in.stack = red::workloads::named_stack(w.net, w.div);
  in.kernels = red::workloads::make_stack_kernels(in.stack, seed);
  in.pool = red::workloads::make_input_batch(in.stack[0], w.pool, seed);
  for (int k = 0; k < w.batch; ++k)
    in.batch.push_back(in.pool[static_cast<std::size_t>(k % w.pool)]);
  in.ref = reference_chain(in.stack, in.kernels, in.pool, w.cases.front().cfg.quant.abits);
  return in;
}

/// Count the images of `r` whose output differs from the reference.
std::int64_t mismatches(const red::sim::StreamingBatchResult& r, const Reference& ref) {
  std::int64_t bad = 0;
  for (std::size_t k = 0; k < r.images.size(); ++k)
    if (!(r.images[k].output == ref.outputs[k % ref.outputs.size()])) ++bad;
  return bad;
}

/// Correctness gate, outside every timed region: the pool streamed at 1 and
/// at 2 lanes must give identical outputs and RunStats, and match the
/// reference. Sets the simulated metrics from the workload's own lane count.
void gate_and_sim_metrics(const StreamWorkload& w, const Inputs& in,
                          const std::vector<std::unique_ptr<red::sim::StreamingExecutor>>& execs,
                          Report& r) {
  double cycles = 0.0, energy = 0.0, snr = 0.0;
  std::int64_t outputs = 0;
  for (std::size_t c = 0; c < execs.size(); ++c) {
    const auto one = execs[c]->stream(in.pool, {1, true});
    const auto two = execs[c]->stream(in.pool, {kMaxLanes, true});
    r.attempted += w.pool;
    for (std::size_t k = 0; k < in.pool.size(); ++k)
      if (!(one.images[k].output == two.images[k].output) ||
          one.images[k].layer_stats != two.images[k].layer_stats)
        r.fail(1, std::string(w.cases[c].tag) + ": 1-lane and 2-lane runs differ on image " +
                      std::to_string(k));
    if (const auto bad = mismatches(one, in.ref); bad > 0)
      r.fail(bad, std::string(w.cases[c].tag) + ": gate outputs differ from the reference");
    const auto& res = w.lanes == 1 ? one : two;
    cycles += static_cast<double>(res.total.cycles);
    for (std::size_t k = 0; k < in.pool.size(); ++k) {
      energy += energy_uj(*execs[c], res.images[k]);
      snr += red::fault::score_output(in.ref.outputs[k], res.images[k].output).snr_db;
      ++outputs;
    }
  }
  const auto pool = static_cast<double>(w.pool);
  r.set("sim_cycles_per_image", cycles / pool, "cycles");
  r.set("sim_energy_uj_per_image", energy / pool, "uJ");
  r.set("repaired_snr_db", snr / static_cast<double>(outputs), "dB");
}

/// One stream() of the batch through every case, checked image by image.
/// Returns the host ms the stream() calls took; adds each item's latency to
/// `latency_ms` and each case's batch result to `results` when given.
double stream_batch(const StreamWorkload& w, const Inputs& in,
                    const std::vector<std::unique_ptr<red::sim::StreamingExecutor>>& execs,
                    Report& r, std::vector<double>* latency_ms,
                    std::vector<red::sim::StreamingBatchResult>* results = nullptr) {
  double host_ms = 0.0;
  std::vector<double> lat(in.batch.size(), 0.0);
  std::vector<bool> bad(in.batch.size(), false);
  for (std::size_t c = 0; c < execs.size(); ++c) {
    red::sim::StreamingBatchResult res;
    const auto t0 = Clock::now();
    try {
      res = execs[c]->stream(in.batch, {w.lanes, true});
    } catch (const red::Error& e) {
      host_ms += ms_since(t0);
      bad.assign(bad.size(), true);
      r.fail(0, std::string(w.cases[c].tag) + ": stream failed: " + e.what());
      continue;
    }
    host_ms += ms_since(t0);
    for (std::size_t k = 0; k < in.batch.size(); ++k) {
      lat[k] += image_latency_ms(res, k);
      if (!(res.images[k].output == in.ref.outputs[k % in.ref.outputs.size()])) bad[k] = true;
    }
    if (results != nullptr) results->push_back(std::move(res));
  }
  r.attempted += std::ssize(in.batch);
  r.failed += std::count(bad.begin(), bad.end(), true);
  if (latency_ms != nullptr) latency_ms->insert(latency_ms->end(), lat.begin(), lat.end());
  return host_ms;
}

Report run_timed(const StreamWorkload& w, const Args& a) {
  Report r;
  const Inputs in = make_inputs(w, a.seed);

  // Set-up: plan compile + crossbar programming (StreamingExecutor construction).
  std::vector<std::unique_ptr<red::sim::StreamingExecutor>> execs;
  r.set("setup_s", median_setup_s([&] {
          execs.clear();
          for (const auto& c : w.cases)
            execs.push_back(std::make_unique<red::sim::StreamingExecutor>(
                red::plan::plan_stack(c.kind, in.stack, c.cfg), in.kernels));
        }),
        "s");

  gate_and_sim_metrics(w, in, execs, r);

  // Timed: whole batches until the time is up; throughput is images over
  // the host time of the stream() calls, latency the quantiles of per-image
  // samples.
  std::vector<double> latency;
  double busy_ms = 0.0;
  std::int64_t batches = 0;
  CpuRotation cpus(w.lanes);
  const auto end = Clock::now() + std::chrono::duration<double>(a.seconds);
  do {
    cpus.next();
    busy_ms += stream_batch(w, in, execs, r, &latency);
    ++batches;
  } while (Clock::now() < end);
  r.set("throughput_per_s", 1e3 * static_cast<double>(latency.size()) / busy_ms, "1/s");
  r.set("latency_ms_p50", quantile(latency, 0.5), "ms");
  r.set("latency_ms_p90", quantile(latency, 0.9), "ms");
  r.note("latency_samples", std::to_string(latency.size()));
  r.note("batches", std::to_string(batches) + " of " + std::to_string(in.batch.size()) +
                        " images");
  r.note("lanes", std::to_string(w.lanes));
  return r;
}

Report run_traced(const StreamWorkload& w, const Args& a) {
  Report r;
  const auto start = Clock::now();
  const Inputs in = make_inputs(w, a.seed);
  const std::size_t depth = in.stack.size();
  for (std::size_t i = 0; i < depth; ++i)
    r.set("perf.input_zero_fraction.stage" + std::to_string(i), in.ref.input_zero_fraction[i],
          "ratio");

  red::telemetry::Tracer tracer(1 << 18);
  red::telemetry::MetricsRegistry registry;
  std::vector<std::unique_ptr<red::sim::StreamingExecutor>> execs;
  {
    // Fixed work only while the registry is installed, so its counts repeat.
    ScopedTelemetry on(&registry, &tracer);

    // Set-up, module by module: plan compile, then each stage's programming.
    std::vector<double> compile_ms;
    std::vector<std::vector<std::vector<double>>> program_ms(
        w.cases.size(), std::vector<std::vector<double>>(depth));
    std::vector<red::plan::StackPlan> plans(w.cases.size());
    std::vector<std::vector<std::unique_ptr<red::arch::ProgrammedLayer>>> programmed(
        w.cases.size());
    std::vector<std::unique_ptr<red::arch::Design>> designs;
    for (const auto& c : w.cases) designs.push_back(red::core::make_design(c.kind, c.cfg));
    for (int rep = 0; rep < kSetupReps; ++rep)
      for (std::size_t c = 0; c < w.cases.size(); ++c) {
        plans[c] = timed("plan.plan_stack", compile_ms, [&] {
          return red::plan::plan_stack(w.cases[c].kind, in.stack, w.cases[c].cfg);
        });
        programmed[c].clear();
        for (std::size_t i = 0; i < depth; ++i)
          programmed[c].push_back(timed("arch.Design::program", program_ms[c][i], [&] {
            return designs[c]->program(plans[c].layers[i], in.kernels[i]);
          }));
      }
    r.set("plan.compile_ms", median(compile_ms), "ms");
    std::int64_t programmed_stages = 0;
    for (std::size_t c = 0; c < w.cases.size(); ++c)
      for (std::size_t i = 0; i < depth; ++i) {
        if (programmed[c][i] == nullptr) continue;
        ++programmed_stages;
        r.set("arch.program_ms." + std::string(w.cases[c].tag) + ".stage" + std::to_string(i),
              median(program_ms[c][i]), "ms");
      }
    r.set("arch.programmed_stage_fraction",
          static_cast<double>(programmed_stages) / static_cast<double>(w.cases.size() * depth),
          "ratio");

    // Every pool image through every stage, one module call at a time.
    std::vector<double> requantize_ms, check_ms;
    double mac_pulses = 0.0, conversions = 0.0;
    for (std::size_t c = 0; c < w.cases.size(); ++c) {
      std::vector<std::vector<double>> run_ms(depth);
      const int abits = w.cases[c].cfg.quant.abits;
      for (std::size_t k = 0; k < in.pool.size(); ++k) {
        Image x = in.pool[k];
        for (std::size_t i = 0; i < depth; ++i) {
          red::arch::RunStats stats;
          Image out = timed("arch.ProgrammedLayer::run", run_ms[i], [&] {
            return programmed[c][i] != nullptr
                       ? programmed[c][i]->run(x, &stats)
                       : designs[c]->run(in.stack[i], x, in.kernels[i], &stats);
          });
          const auto issues = timed("sim.consistency_issues", check_ms, [&] {
            return red::sim::consistency_issues(plans[c].layers[i].activity, stats,
                                                red::count_zeros(x) == 0);
          });
          if (!issues.empty()) r.fail(1, std::string(w.cases[c].tag) + ": " + issues.front());
          mac_pulses += static_cast<double>(stats.mvm.mac_pulses);
          conversions += static_cast<double>(stats.mvm.conversions);
          if (i + 1 < depth) {
            x = timed("sim.requantize_activations", requantize_ms,
                      [&] { return red::sim::requantize_activations(out, abits); });
          } else {
            ++r.attempted;
            if (!(out == in.ref.outputs[k]))
              r.fail(1, std::string(w.cases[c].tag) + ": output differs from the reference");
          }
        }
      }
      for (std::size_t i = 0; i < depth; ++i)
        r.set("arch.run_ms." + std::string(w.cases[c].tag) + ".stage" + std::to_string(i),
              median(run_ms[i]), "ms");
    }
    r.set("sim.requantize_ms", median(requantize_ms), "ms");
    r.set("sim.check_ms", median(check_ms), "ms");
    r.set("perf.mac_pulses_per_image", mac_pulses / static_cast<double>(w.pool), "count");
    r.set("perf.conversions_per_image", conversions / static_cast<double>(w.pool), "count");

    // The pipelined schedule, traced: fill, steady interval, lane occupancy.
    for (std::size_t c = 0; c < w.cases.size(); ++c)
      execs.push_back(
          std::make_unique<red::sim::StreamingExecutor>(plans[c], in.kernels));
    std::vector<red::sim::StreamingBatchResult> results;
    const std::uint64_t t0 = tracer.now_ns();
    const double host_ms = stream_batch(w, in, execs, r, nullptr, &results);
    const std::uint64_t t1 = tracer.now_ns();
    double fill = 0.0, steady = 0.0;
    for (const auto& res : results) {
      fill += res.fill_ms();
      steady += res.steady_interval_ms();
    }
    r.set("sim.fill_ms", fill, "ms");
    r.set("sim.steady_interval_ms", steady, "ms");
    r.set("sim.lane_occupancy",
          span_ms(tracer, "streaming.stage[", t0, t1) / (w.lanes * host_ms), "ratio");
  }

  // Telemetry overhead: alternate untraced and traced batches for the rest
  // of the run, so slow drifts of the host hit both sides alike.
  std::vector<double> untraced, traced;
  const auto end = start + std::chrono::duration<double>(a.seconds);
  red::telemetry::MetricsRegistry scratch;
  CpuRotation cpus(w.lanes);
  do {
    cpus.next();
    untraced.push_back(1e3 * std::ssize(in.batch) / stream_batch(w, in, execs, r, nullptr));
    ScopedTelemetry on(&scratch, &tracer);
    traced.push_back(1e3 * std::ssize(in.batch) / stream_batch(w, in, execs, r, nullptr));
  } while (Clock::now() < end);
  set_overhead(r, untraced, traced);
  finish_trace(r, registry, tracer, a.trace_path);
  return r;
}

Report run(const StreamWorkload& w, const Args& a) {
  return a.trace ? run_traced(w, a) : run_timed(w, a);
}

}  // namespace

Report run_red_stream_exact(const Args& a) {
  StreamWorkload w;
  w.net = "dcgan";
  w.div = 4;
  w.cases = {{"red", red::core::DesignKind::kRed, {}}};
  w.lanes = kMaxLanes;
  w.pool = 8;
  w.batch = 32;
  return run(w, a);
}

Report run_baseline_bitacc(const Args& a) {
  red::arch::DesignConfig cfg;
  cfg.bit_accurate = true;  // ideal ADC (the default): outputs stay exact
  StreamWorkload w;
  w.net = "sngan";
  w.div = 4;
  w.cases = {{"zp", red::core::DesignKind::kZeroPadding, cfg},
             {"pf", red::core::DesignKind::kPaddingFree, cfg}};
  w.lanes = 1;
  w.pool = 8;
  w.batch = 16;
  return run(w, a);
}

}  // namespace e2e
