// Kernel objects: a name (for per-kernel timing segments, as LibSciBench
// records in the paper) plus the C++ callable body and launch attributes.
//
// A kernel always carries a per-item body (the reference semantics: one
// call per work-item, full WorkItem context).  It may additionally carry a
// *span* body -- a whole-group formulation called once per work-group with
// the contiguous [begin, end) run of flat global ids that group covers.
// The span tier is the vectorization story of DESIGN.md §9: a single call
// per group amortizes all dispatch overhead, and the body is either a
// contiguous counted loop over EOD_RESTRICT-qualified pointers the
// compiler can auto-vectorize or explicit lane vectors (xcl/simd.hpp) --
// one body per kernel, whichever measured faster.  The per-item body
// remains as the bit-identical reference path (and the only path for
// non-1-D ranges or when the dispatch-mode override forces per-item
// execution).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "xcl/work_item.hpp"

// Restrict qualifier for the raw pointers span bodies loop over; standard
// C++ has no `restrict`, but every toolchain we build with spells it this
// way (MSVC spells it __restrict).
#if defined(_MSC_VER)
#define EOD_RESTRICT __restrict
#else
#define EOD_RESTRICT __restrict__
#endif

namespace eod::xcl {

/// Non-owning reference to a span-kernel callable: two raw pointers,
/// trivially copyable, same idiom as GroupFnRef (fiber.hpp).  The executor
/// materializes one per launch from the kernel's stored span body and
/// passes it by value into the per-group dispatch, so the hot path never
/// touches std::function.
class RangeKernelRef {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, RangeKernelRef>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, like
  // std::function_ref -- call sites pass callables directly.
  RangeKernelRef(const F& fn)
      : obj_(&fn),
        call_([](const void* obj, std::size_t begin, std::size_t end) {
          (*static_cast<const F*>(obj))(begin, end);
        }) {}

  void operator()(std::size_t begin, std::size_t end) const {
    call_(obj_, begin, end);
  }

 private:
  const void* obj_ = nullptr;
  void (*call_)(const void*, std::size_t, std::size_t) = nullptr;
};

class Kernel {
 public:
  using Body = std::function<void(WorkItem&)>;
  /// Whole-group body: processes the contiguous run of flat global ids
  /// [begin, end) covered by one work-group.  Tail clamping (padded
  /// NDRanges) is the body's responsibility, exactly as the per-item
  /// body's early-return guard is.
  using SpanBody = std::function<void(std::size_t begin, std::size_t end)>;

  Kernel(std::string name, Body body)
      : name_(std::move(name)), body_(std::move(body)) {}

  /// Declares that the body calls WorkItem::barrier(); such kernels execute
  /// each work-group as a fiber set rather than a plain loop.
  Kernel& uses_barriers(bool value = true) {
    uses_barriers_ = value;
    return *this;
  }

  /// Registers the kernel's one whole-group formulation.  The author
  /// asserts it computes bit-identical results to running the per-item
  /// body over the same group, scalar tails included (and, for barrier
  /// kernels, any intra-group ordering the barriers enforced -- see
  /// DESIGN.md §9 for the legality and determinism rules).
  Kernel& span(SpanBody body) {
    span_body_ = std::move(body);
    return *this;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Body& body() const noexcept { return body_; }
  [[nodiscard]] bool barriers() const noexcept { return uses_barriers_; }
  [[nodiscard]] bool has_span() const noexcept {
    return static_cast<bool>(span_body_);
  }
  [[nodiscard]] const SpanBody& span_body() const noexcept {
    return span_body_;
  }

 private:
  std::string name_;
  Body body_;
  SpanBody span_body_;
  bool uses_barriers_ = false;
};

}  // namespace eod::xcl
