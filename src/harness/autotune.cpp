#include "harness/autotune.hpp"

#include <algorithm>

namespace eod::harness {

std::vector<TuneResult> sweep_work_group_sizes(
    const xcl::Device& device, std::size_t global_items,
    const xcl::WorkloadProfile& profile,
    const std::vector<std::size_t>& candidates) {
  std::vector<TuneResult> results;
  for (const std::size_t wg : candidates) {
    if (wg > device.info().max_work_group_size) continue;
    if (wg > global_items) continue;
    // Pad the global size up to a work-group multiple, as launches do.
    const std::size_t global = (global_items + wg - 1) / wg * wg;
    xcl::KernelLaunchStats stats{"autotune_probe",
                                 xcl::NDRange(global, wg), profile};
    results.push_back({wg, device.model().kernel_seconds(stats)});
  }
  std::sort(results.begin(), results.end(),
            [](const TuneResult& a, const TuneResult& b) {
              return a.modeled_seconds < b.modeled_seconds;
            });
  return results;
}

TuneResult autotune_work_group(const xcl::Device& device,
                               std::size_t global_items,
                               const xcl::WorkloadProfile& profile,
                               const std::vector<std::size_t>& candidates) {
  const auto results =
      sweep_work_group_sizes(device, global_items, profile, candidates);
  if (results.empty()) {
    return {1, device.model().kernel_seconds(
                   {"autotune_probe", xcl::NDRange(global_items, 1),
                    profile})};
  }
  return results.front();
}

}  // namespace eod::harness
