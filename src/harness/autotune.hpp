// Local work-group size auto-tuning (§7 future work): "Certain
// configuration parameters for the benchmarks, e.g. local workgroup size,
// are amenable to auto-tuning.  We plan to integrate auto-tuning into the
// benchmarking framework to provide confidence that the optimal parameters
// are used for each combination of code and accelerator."
//
// The tuner sweeps candidate work-group sizes for a given launch shape and
// workload profile and returns the fastest configuration under the device
// model (where wide-wavefront devices pay for partial SIMD groups).
#pragma once

#include <cstddef>
#include <vector>

#include "xcl/device.hpp"
#include "xcl/modeling.hpp"
#include "xcl/ndrange.hpp"

namespace eod::harness {

struct TuneResult {
  std::size_t work_group = 0;
  double modeled_seconds = 0.0;
};

/// All candidates evaluated, sorted fastest-first.
[[nodiscard]] std::vector<TuneResult> sweep_work_group_sizes(
    const xcl::Device& device, std::size_t global_items,
    const xcl::WorkloadProfile& profile,
    const std::vector<std::size_t>& candidates = {8, 16, 32, 64, 128, 256});

/// The single best work-group size for the launch on this device.  Falls
/// back to a single-item group when no candidate fits the launch (all
/// larger than global_items or the device's group-size limit).
[[nodiscard]] TuneResult autotune_work_group(
    const xcl::Device& device, std::size_t global_items,
    const xcl::WorkloadProfile& profile,
    const std::vector<std::size_t>& candidates = {8, 16, 32, 64, 128, 256});

}  // namespace eod::harness
