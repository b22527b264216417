#include "red/arch/gathered_run.h"

#include <algorithm>
#include <utility>

#include "red/common/contracts.h"
#include "red/fault/inject.h"
#include "red/perf/mvm_kernel.h"
#include "red/perf/thread_pool.h"
#include "red/perf/workspace.h"

namespace red::arch {

namespace {

Tensor<std::int32_t> run_gathered(const GatheredProgram& prog,
                                  std::span<const xbar::LogicalXbar> xbars, int threads,
                                  const Tensor<std::int32_t>& input, RunStats* stats) {
  const nn::DeconvLayerSpec& spec = prog.spec;
  const std::span<const GatherTable> tables = prog.tables;
  const int period = prog.period;
  const bool bit_accurate = prog.bit_accurate;
  RED_EXPECTS(input.shape() == spec.input_shape());
  RED_EXPECTS(period >= 1);
  // The input planes, each followed by one zero: an idle slot reads that
  // zero, so the gather copies without a branch.
  const std::int64_t in_plane = std::int64_t{spec.ih} * spec.iw;
  const std::int64_t padded_plane = in_plane + 1;
  std::vector<std::int32_t> padded(static_cast<std::size_t>(spec.c * padded_plane), 0);
  std::vector<std::int32_t> channel_offset(static_cast<std::size_t>(spec.c));
  for (int c = 0; c < spec.c; ++c) {
    std::copy_n(input.ptr(0, c), in_plane, padded.data() + c * padded_plane);
    channel_offset[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(c * padded_plane);
  }
  // Block b of the run is block b - first_block[t] of table t.
  std::vector<std::int64_t> first_block(tables.size() + 1, 0);
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const GatherTable& table = tables[t];
    RED_EXPECTS(table.xbar < xbars.size() && table.block > 0 && table.block % period == 0);
    const auto vectors = std::ssize(table.out_pixel);
    first_block[t + 1] = first_block[t] + (vectors + table.block - 1) / table.block;
  }
  const std::int64_t blocks = first_block.back();

  Tensor<std::int32_t> out(spec.output_shape());
  const std::int64_t out_plane = std::int64_t{spec.oh()} * spec.ow();
  const std::int64_t chunks = perf::chunk_count(threads, blocks);
  std::vector<RunStats> chunk_stats(static_cast<std::size_t>(chunks));
  perf::parallel_chunks(chunks, blocks, [&](std::int64_t t, std::int64_t b0, std::int64_t b1) {
    RunStats& local = chunk_stats[static_cast<std::size_t>(t)];
    thread_local perf::MvmWorkspace ws;  // Monte Carlo calls run() thousands of times
    std::vector<std::int32_t> gathered;  // one block of vector inputs
    // Partial sums carried across the vectors of one period (Eq. 2).
    std::vector<std::int64_t> acc(static_cast<std::size_t>(spec.m));
    std::size_t ti = static_cast<std::size_t>(
        std::upper_bound(first_block.begin(), first_block.end(), b0) - first_block.begin() - 1);
    for (std::int64_t b = b0; b < b1; ++b) {
      while (b >= first_block[ti + 1]) ++ti;
      const GatherTable& table = tables[ti];
      const xbar::LogicalXbar& xb = xbars[table.xbar];
      const std::int64_t rows = table.rows.empty() ? xb.rows() : std::ssize(table.rows);
      const std::int64_t slots = rows / spec.c;
      const std::int64_t v0 = (b - first_block[ti]) * table.block;
      const std::int64_t batch = std::min(table.block, std::ssize(table.out_pixel) - v0);
      const std::int32_t* pixel = table.pixel.data() + slots * v0;
      const std::int64_t* out_pixel = table.out_pixel.data() + v0;
      // Vector gathers along contiguous rows of the block: one channel
      // across the vectors (batch-minor, read in place by the exact
      // kernel's batch sweep), or one slot's channels in one vector.
      const bool batch_minor = perf::runs_exact_kernel(xb, bit_accurate) &&
                               perf::exact_sweep(xb) == perf::ExactSweep::kBatch;
      gathered.resize(static_cast<std::size_t>(batch * rows));
      for (std::int64_t s = 0; s < slots; ++s) {
        const std::int32_t* slot_pixel = pixel + s * batch;
        if (batch_minor) {
          for (int c = 0; c < spec.c; ++c)
            perf::gather_inputs(padded.data() + c * padded_plane,
                                {slot_pixel, static_cast<std::size_t>(batch)},
                                gathered.data() + (s * spec.c + c) * batch);
        } else {
          for (std::int64_t k = 0; k < batch; ++k)
            perf::gather_inputs(padded.data() + slot_pixel[k], channel_offset,
                                gathered.data() + k * rows + s * spec.c);
        }
      }
      const auto partials = perf::mvm_gathered(xb, table.rows, gathered, batch, batch_minor,
                                               bit_accurate, ws, &local.mvm);
      for (std::int64_t k = 0; k < batch; ++k) {
        if ((v0 + k) % period == 0) std::fill(acc.begin(), acc.end(), 0);
        const std::int64_t* p = partials.data() + k * spec.m;
        for (int m = 0; m < spec.m; ++m) acc[static_cast<std::size_t>(m)] += p[m];
        if (out_pixel[k] >= 0)
          for (int m = 0; m < spec.m; ++m)
            out.data()[m * out_plane + out_pixel[k]] =
                static_cast<std::int32_t>(acc[static_cast<std::size_t>(m)]);
      }
    }
  });
  RunStats total;
  for (const auto& cs : chunk_stats) total += cs;
  total.cycles = prog.cycles;
  if (stats != nullptr) *stats = total;
  return out;
}

class GatheredLayer final : public ProgrammedLayer {
 public:
  GatheredLayer(std::shared_ptr<const GatheredProgram> prog, std::vector<xbar::LogicalXbar> xbars,
                int threads)
      : prog_(std::move(prog)), xbars_(std::move(xbars)), threads_(threads) {}

  Tensor<std::int32_t> run(const Tensor<std::int32_t>& input, RunStats* stats) const override {
    return run_gathered(*prog_, xbars_, threads_, input, stats);
  }

  std::unique_ptr<ProgrammedLayer> perturbed(const xbar::VariationModel& var) const override {
    std::vector<xbar::LogicalXbar> perturbed_xbars;
    perturbed_xbars.reserve(xbars_.size());
    for (std::size_t i = 0; i < xbars_.size(); ++i) perturbed_xbars.emplace_back(xbars_[i], var, i);
    return std::make_unique<GatheredLayer>(prog_, std::move(perturbed_xbars), threads_);
  }

  std::vector<fault::FaultDraw> draw_faults(const fault::FaultModel& model,
                                            std::span<const fault::RepairPolicy> arms,
                                            std::uint64_t salt) const override {
    std::vector<fault::FaultDraw> draws;
    draws.reserve(xbars_.size());
    for (std::size_t i = 0; i < xbars_.size(); ++i)
      draws.push_back(fault::draw_faults(xbars_[i], model, arms, salt * prog_->salt_stride + i));
    return draws;
  }

  std::unique_ptr<ProgrammedLayer> repaired(std::span<const fault::FaultDraw> draws,
                                            const fault::RepairPolicy& policy,
                                            fault::RepairReport* report,
                                            int threads) const override {
    RED_EXPECTS(draws.size() == xbars_.size());
    std::vector<xbar::LogicalXbar> faulted_xbars;
    faulted_xbars.reserve(xbars_.size());
    fault::RepairReport total;
    for (std::size_t i = 0; i < xbars_.size(); ++i) {
      fault::RepairReport rep;
      faulted_xbars.push_back(fault::repair_faults(xbars_[i], draws[i], policy, &rep));
      total += rep;
    }
    if (report != nullptr) *report = total;
    return std::make_unique<GatheredLayer>(prog_, std::move(faulted_xbars),
                                           threads > 0 ? threads : threads_);
  }

  xbar::VariationStats variation_stats() const override {
    xbar::VariationStats total;
    for (const auto& xb : xbars_) total += xb.variation_stats();
    return total;
  }

 private:
  std::shared_ptr<const GatheredProgram> prog_;
  std::vector<xbar::LogicalXbar> xbars_;
  int threads_;  ///< run() lanes over the gathered blocks
};

}  // namespace

std::unique_ptr<ProgrammedLayer> make_gathered_layer(std::shared_ptr<const GatheredProgram> program,
                                                     std::vector<xbar::LogicalXbar> xbars,
                                                     int threads) {
  return std::make_unique<GatheredLayer>(std::move(program), std::move(xbars), threads);
}

}  // namespace red::arch
