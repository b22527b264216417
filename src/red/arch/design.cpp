#include "red/arch/design.h"

#include "red/common/contracts.h"
#include "red/common/error.h"
#include "red/plan/plan.h"

namespace red::arch {

void DesignConfig::validate() const {
  quant.validate();
  tiling.validate();
  if (activation_sparsity < 0.0 || activation_sparsity >= 1.0)
    throw ConfigError("activation_sparsity must be in [0, 1)");
  if (mux_ratio < 1) throw ConfigError("mux_ratio must be >= 1");
  if (red_max_subcrossbars < 1) throw ConfigError("red_max_subcrossbars must be >= 1");
  if (red_fold < 0) throw ConfigError("red_fold must be >= 0 (0 = auto)");
  if (lookahead_h < 0) throw ConfigError("lookahead_h must be >= 0 (0 = off)");
  if (lookaside_d < 0) throw ConfigError("lookaside_d must be >= 0 (0 = off)");
  if (threads < 1) throw ConfigError("threads must be >= 1");
  fault.validate();
}

Design::Design(DesignConfig cfg) : cfg_(std::move(cfg)) { cfg_.validate(); }

std::unique_ptr<ProgrammedLayer> ProgrammedLayer::faulted(const fault::FaultModel& model,
                                                          const fault::RepairPolicy& policy,
                                                          std::uint64_t salt,
                                                          fault::RepairReport* report) const {
  return repaired(draw_faults(model, {&policy, 1}, salt), policy, report);
}

Tensor<std::int32_t> Design::run(const nn::DeconvLayerSpec& spec,
                                 const Tensor<std::int32_t>& input,
                                 const Tensor<std::int32_t>& kernel, RunStats* stats) const {
  const auto programmed = program(spec, kernel);
  RED_EXPECTS_MSG(programmed != nullptr, "a design without a programmed layer overrides run()");
  return programmed->run(input, stats);
}

std::unique_ptr<ProgrammedLayer> Design::program(const nn::DeconvLayerSpec& spec,
                                                 const Tensor<std::int32_t>& kernel) const {
  return program(plan::plan_layer(kind(), spec, cfg_), kernel);
}

std::unique_ptr<ProgrammedLayer> Design::program(const plan::LayerPlan& plan,
                                                 const Tensor<std::int32_t>& kernel,
                                                 std::uint64_t variation_salt) const {
  check_plan(plan);
  (void)kernel;
  (void)variation_salt;
  return nullptr;  // no programmed layer; callers fall back to run()
}

void Design::check_plan(const plan::LayerPlan& plan) const {
  RED_EXPECTS_MSG(plan.key == plan::structural_key(kind(), cfg_, plan.spec),
                  "plan was compiled for a different design kind or config");
}

LayerActivity Design::activity(const nn::DeconvLayerSpec& spec) const {
  return plan::plan_layer(kind(), spec, cfg_).activity;
}

LayerActivity Design::activity(const plan::LayerPlan& plan) const {
  check_plan(plan);
  return plan.activity;
}

CostReport Design::cost(const nn::DeconvLayerSpec& spec) const {
  return cost(plan::plan_layer(kind(), spec, cfg_));
}

CostReport Design::cost(const plan::LayerPlan& plan) const {
  check_plan(plan);
  return compute_cost(cfg_.tiled ? apply_tiling(plan.activity, cfg_) : plan.activity, cfg_);
}

}  // namespace red::arch
