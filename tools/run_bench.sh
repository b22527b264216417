#!/usr/bin/env sh
# Run the simulator benchmarks and emit the machine-readable reports:
#   BENCH_mvm.json      — Google Benchmark JSON with the before/after MVM
#                         kernel pairs (needs google-benchmark at build time)
#   BENCH_analog.json   — before/after IR-drop solver and noise-sweep timings
#   BENCH_pipeline.json — sequential per-image runs vs the streaming batched
#                         executor (fill, steady-state interval, img/s)
#   BENCH_opt.json      — design-space optimizer strategies vs the exhaustive
#                         frontier (evaluations-to-frontier, memo hit rates)
#   BENCH_fault.json    — fault-injection campaigns: graceful-degradation
#                         curves (bare vs repaired) gated on zero-rate oracle
#                         equivalence and repaired-never-worse quality
# See docs/PERFORMANCE.md for how to read them.
#
# Usage: tools/run_bench.sh [--quick] [--mvm-only] [--out-dir DIR] [build_dir]
#   --quick       one-iteration smoke run (what the bench_smoke CTest label uses)
#   --mvm-only    skip the analog/pipeline/opt benchmarks (bench_smoke_micro
#                 uses this so their smoke coverage stays with their own
#                 bench_smoke_* entries)
#   --out-dir DIR directory receiving every BENCH_*.json (default: the repo
#                 root, where the checked-in reports live, whatever the cwd)
set -eu

quick=0
mvm_only=0
out_dir="$(cd "$(dirname "$0")/.." && pwd)"
while true; do
  case "${1:-}" in
    --quick) quick=1; shift ;;
    --mvm-only) mvm_only=1; shift ;;
    --out-dir) out_dir="${2:?--out-dir needs a directory}"; shift 2 ;;
    *) break ;;
  esac
done
build_dir="${1:-build}"
mkdir -p "${out_dir}"

if [ -x "${build_dir}/bench_micro_simulator" ]; then
  min_time_flag=""
  if [ "${quick}" = "1" ]; then
    min_time_flag="--benchmark_min_time=0.001"
  fi
  "${build_dir}/bench_micro_simulator" \
    --benchmark_filter='BM_Mvm|BM_XbarProgram|BM_InjectFaults|BM_FaultCampaignCall|BM_ZpRun|BM_PfRun|BM_SimulateNetwork' \
    ${min_time_flag} \
    --benchmark_out="${out_dir}/BENCH_mvm.json" \
    --benchmark_out_format=json
  echo ""
  echo "Wrote ${out_dir}/BENCH_mvm.json"
  echo "Before/after pairs: BM_MvmBitAccurateReference vs BM_MvmBitAccurate"
  echo "(ideal ADC: the reference walk vs the exact kernel it runs),"
  echo "BM_MvmClippedReference vs BM_MvmClipped, BM_SimulateNetwork/1 vs /4,"
  echo "BM_MvmPackedIsa/portable vs /avx2 /avx512 (one row per popcount tier,"
  echo "clipped ADC at its lossless resolution; the run refuses to start unless"
  echo "every tier this CPU supports is bit-identical to the reference oracle,"
  echo "both kernels), BM_MvmDcganMacro bitacc:1 vs bitacc:0 (the popcount"
  echo "kernel vs the exact row sweep on one lossless-clipped macro),"
  echo "BM_MvmDcganMacroExact/portable vs /avx2 /avx512 (the exact kernel per"
  echo "tier), BM_MvmDcganStage3BatchMinor mode:0 vs mode:1 (288x3 swept"
  echo "across the columns vs across a batch-minor block), BM_XbarProgram"
  echo "(programming one crossbar on sngan/div4's zero-padding and"
  echo "padding-free macro shapes), BM_InjectFaults arm:0 + arm:1 vs arm:both"
  echo "(on a 2048x256 GAN_Deconv4 group crossbar at the active tier: a draw"
  echo "pass plus a repair per policy, bare and repaired, vs one draw pass and"
  echo "both repairs from it, as a campaign trial runs them),"
  echo "BM_FaultCampaignCall (one 2-trial, 2-lane GAN_Deconv4 campaign call, the"
  echo "fault-repair workload's unit pair), and BM_ZpRun (zero padding's run"
  echo "per dcgan/div4 stage and on fcn8s/div4's fcn8s_up8; dcgan stage:3's"
  echo "800x3 macro reads batch-minor gathered blocks, the others vector-major)."
else
  echo "warning: ${build_dir}/bench_micro_simulator not found (google-benchmark" >&2
  echo "missing at configure time?); skipping ${out_dir}/BENCH_mvm.json." >&2
fi

if [ "${mvm_only}" = "1" ]; then
  exit 0
fi

quick_flag=""
if [ "${quick}" = "1" ]; then
  quick_flag="--quick"
fi

for bench in bench_analog bench_pipeline bench_opt bench_fault; do
  if [ ! -x "${build_dir}/${bench}" ]; then
    echo "error: ${build_dir}/${bench} not found." >&2
    echo "Build it first: cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
    exit 1
  fi
done

echo ""
"${build_dir}/bench_analog" ${quick_flag} --out "${out_dir}/BENCH_analog.json"
echo "Before/after pairs: BM_IrDropReferenceSor vs BM_IrDropAdiFast,"
echo "BM_NoiseSweepPerSeedRebuild vs BM_NoiseSweepMonteCarlo."

echo ""
"${build_dir}/bench_pipeline" ${quick_flag} --out "${out_dir}/BENCH_pipeline.json"
echo "Before/after pair: BM_SequentialPerImage vs BM_StreamingPipelined."

echo ""
"${build_dir}/bench_opt" ${quick_flag} --out "${out_dir}/BENCH_opt.json"
echo "Pairs: BM_Opt_<strategy> cold vs _warm (memoized re-search); see the"
echo "search[] section for evaluations-to-frontier and memo hit rates."

echo ""
"${build_dir}/bench_fault" ${quick_flag} --out "${out_dir}/BENCH_fault.json"
echo "See the degradation[] section for bare-vs-repaired SNR per fault rate;"
echo "the gates object must read all-true (zero-rate oracle equivalence,"
echo "repaired never worse)."
