// Functional NDRange execution: runs a kernel body for every work-item.
// Work-groups are distributed across the work-stealing thread pool; items
// within a group run on one thread (plain loop, or fibers when the kernel
// uses barriers, or a single span-kernel call when the kernel provides a
// whole-group formulation).  Each executing thread owns long-lived scratch
// -- a lazily-grown LocalArena and a FiberPool of reusable stacks -- so
// steady-state group dispatch performs no heap allocation.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "xcl/device.hpp"
#include "xcl/kernel.hpp"
#include "xcl/ndrange.hpp"

namespace eod::xcl {

class ThreadPool;

/// Process-wide tier-selection override (DESIGN.md §9, §10).  kAuto uses
/// the span tier whenever it is legal for a launch and falls back to the
/// per-item loop/fiber tiers otherwise; kItem forces the per-item reference
/// path even for kernels that carry a span body (the A/B baseline).
/// kChecked is the checker tier: while a check::CheckSession is active,
/// launches run serially through the shadow-memory instrumentation
/// (check/checked_exec.hpp); without a session it behaves like kItem.  An
/// active CheckSession overrides every other mode.
enum class DispatchMode : std::uint8_t { kAuto, kItem, kChecked };

[[nodiscard]] DispatchMode dispatch_mode() noexcept;
void set_dispatch_mode(DispatchMode mode) noexcept;

/// "auto" | "item" | "checked" -> mode; nullopt otherwise.
[[nodiscard]] std::optional<DispatchMode> parse_dispatch_mode(
    std::string_view name) noexcept;
[[nodiscard]] const char* to_string(DispatchMode mode) noexcept;

/// The valid parse_dispatch_mode() spellings, for CLI error/usage text
/// ("auto|item|checked") -- one source of truth so the message
/// cannot drift from the parser.
[[nodiscard]] const char* dispatch_mode_names() noexcept;

/// Process default dispatch mode: the EOD_DISPATCH environment hatch
/// (mirroring EOD_QUEUE/EOD_TRACE), kAuto when unset.  An unparseable
/// value aborts via std::exit with a message listing the valid modes --
/// silently running the wrong tier would invalidate a measurement.
/// Cached after first use, like default_queue_mode().
[[nodiscard]] DispatchMode default_dispatch_mode();

/// Snapshot of the executor's process-wide observability counters: dispatch
/// activity from the global pool plus the per-worker scratch reuse counters.
struct ExecutorStats {
  std::uint64_t launches = 0;         ///< parallel launches dispatched
  std::uint64_t tasks_executed = 0;   ///< work-groups (iterations) run
  std::uint64_t chunks_claimed = 0;   ///< owner-side range claims
  std::uint64_t chunks_stolen = 0;    ///< thief-side half-range steals
  std::uint64_t groups_loop = 0;      ///< groups run as plain loops
  std::uint64_t groups_fiber = 0;     ///< groups run as fiber sets
  std::uint64_t groups_span = 0;      ///< groups run as one span call
  /// Always 0: nothing increments it since the explicit-SIMD bodies became
  /// the span bodies.  Kept only for readers compiled against the field.
  std::uint64_t groups_simd = 0;
  std::uint64_t groups_checked = 0;   ///< groups run under the checker tier
  std::uint64_t arena_bytes_hwm = 0;  ///< largest __local footprint served
  std::uint64_t fiber_stacks_created = 0;
  std::uint64_t fiber_stacks_reused = 0;
};

/// Counters for the global pool and all executor worker scratch.
[[nodiscard]] ExecutorStats executor_stats();
void reset_executor_stats();

/// Executes `kernel` over `range` (local sizes must already be resolved) on
/// `pool` (the global pool when null).  Throws the exception raised by the
/// lowest-indexed failing work-group, deterministically.
void execute_ndrange(const Kernel& kernel, const NDRange& range,
                     const Device& device, ThreadPool* pool = nullptr);

}  // namespace eod::xcl
