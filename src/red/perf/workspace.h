// Reusable scratch buffers for the MVM kernels.
//
// Every buffer an MVM call needs — the packed input bit-planes of the
// popcount kernel, the exact kernel's non-zero row list and batch-minor
// input copy, and the output block — lives here, so a warmed-up
// workspace makes an MVM call allocation-free. Workspaces are plain value
// types: one per thread (the kernels never share one across threads),
// reusable across crossbars of any geometry because prepare() and
// prepare_packed() only ever grow the buffers.
#pragma once

#include <cstdint>
#include <vector>

namespace red::perf {

struct MvmWorkspace {
  /// Packed input bit-planes for the popcount kernel, word-major so one
  /// weight word broadcasts against all planes: in_planes[w * planes_pad + j]
  /// is word w (rows 64w..64w+63) of input bit-plane j, with planes_pad the
  /// plane count rounded up to a multiple of 4 (one 256-bit lane group); the
  /// pad planes stay zero.
  std::vector<std::uint64_t> in_planes;
  /// Exact kernel, column sweep: the non-zero rows of one input vector, as
  /// row indices and their activations (16 lanes of slack for vector
  /// stores past the count).
  std::vector<std::int32_t> nz_rows;
  std::vector<std::int32_t> nz_vals;
  /// Exact kernel, batch sweep: a vector-major batch copied batch-minor
  /// (in_t[r * batch + v] is row r of vector v). Popcount kernel: a
  /// gathered vector scattered over every crossbar row.
  std::vector<std::int32_t> in_t;
  /// Kernel output block: batch * cols results, vector-major.
  std::vector<std::int64_t> out;
  /// Padding-free's scatter canvas; contents are transient per layer.
  std::vector<std::int32_t> canvas;
  /// Padding-free's MVM input block: one input row of pixels.
  std::vector<std::int32_t> windows;

  /// Grow (never shrink) the output block for a batch of `batch` MVMs on a
  /// cols-column crossbar.
  void prepare(std::int64_t cols, std::int64_t batch = 1) {
    const auto need_out = static_cast<std::size_t>(batch) * static_cast<std::size_t>(cols);
    if (out.size() < need_out) out.resize(need_out);
  }

  /// Grow (never shrink) the exact kernel's scratch for rows-wordline
  /// crossbars: the non-zero row list, and `transposed` elements of
  /// batch-minor copy.
  void prepare_exact(std::int64_t rows, std::int64_t transposed) {
    const auto need = static_cast<std::size_t>(rows) + 16;
    if (nz_rows.size() < need) {
      nz_rows.resize(need);
      nz_vals.resize(need);
    }
    if (in_t.size() < static_cast<std::size_t>(transposed))
      in_t.resize(static_cast<std::size_t>(transposed));
  }

  /// Grow (never shrink) the packed input-plane buffer for a rows-wordline
  /// crossbar streaming `planes_pad` (already padded) input bit-planes. Like
  /// prepare(), sizing is per shape, not per call: a warmed-up workspace
  /// re-encodes in place with no heap traffic across mvm_batch calls.
  void prepare_packed(std::int64_t rows, int planes_pad) {
    const auto need = static_cast<std::size_t>((rows + 63) / 64) *
                      static_cast<std::size_t>(planes_pad);
    if (in_planes.size() < need) in_planes.resize(need);
  }
};

}  // namespace red::perf
