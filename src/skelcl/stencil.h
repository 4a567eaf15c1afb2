// The Stencil skeleton: out-of-place neighborhood computation over a 1D
// sequence or a row-major 2D grid,
//
//   stencil f [x0, ..., xn-1] = [f(w0), ..., f(wn-1)]
//
// where wi is the (2*radius+1)-wide window (or square, in 2D) centered
// on xi, with out-of-range cells resolved by a boundary policy. The
// customizing function receives a pointer to its window's *first* cell
// in a halo-padded buffer — center at offset `radius` — plus the padded
// row stride in 2D:
//
//   1D:  float f(__global const float* w)            // center w[R]
//   2D:  float f(__global const float* w, uint s)    // center w[R*s+R]
//
// Under the block distribution each device computes its rows after
// exchanging `radius` halo rows with its neighbors via peer buffer
// copies; the interior rows never wait for a halo, so the exchange
// overlaps interior compute (detail/irregular.cpp documents the event
// DAG). Invocation is lazy like every other skeleton, but the root is
// opaque to fusion — producers feeding a stencil materialize first.
//
// There is deliberately no explicit-output (in-place) form: a stencil
// reads each input cell from several work-items, so writing the result
// over the input would mix old and new neighborhoods.
#pragma once

#include <memory>
#include <string>

#include "skelcl/arguments.h"
#include "skelcl/detail/expr.h"
#include "skelcl/detail/skeleton_common.h"
#include "skelcl/vector.h"
#include "trace/recorder.h"

namespace skelcl {

/// Out-of-range resolution: clamp to the nearest edge cell, wrap around
/// (torus), or substitute a constant fill value.
enum class Boundary { Clamp, Wrap, Constant };

/// Window geometry. `width` > 0 interprets the input as a row-major 2D
/// grid with that row length (the vector size must divide evenly);
/// 0 keeps the 1D interpretation.
struct StencilShape {
  std::size_t radius = 1;
  Boundary boundary = Boundary::Clamp;
  std::size_t width = 0;
};

template <typename T>
class Stencil {
public:
  Stencil(const std::string& source, StencilShape shape,
          T constantValue = T{})
      : fn_(detail::Runtime::instance().userFunction(source)),
        shape_(shape) {
    if (shape_.radius == 0) {
      throw common::InvalidArgument("Stencil radius must be at least 1");
    }
    if (shape_.boundary == Boundary::Constant) {
      constArg_.push(constantValue);
    }
  }

  Stencil(const std::string& source, std::size_t radius,
          Boundary boundary = Boundary::Clamp, T constantValue = T{})
      : Stencil(source, StencilShape{radius, boundary, 0}, constantValue) {}

  void setWorkGroupSize(std::size_t size) { workGroupSize_ = size; }

  Vector<T> operator()(const Vector<T>& input) {
    return (*this)(input, Arguments{});
  }

  Vector<T> operator()(const Vector<T>& input, const Arguments& args) {
    trace::ScopedHostSpan span(trace::HostKind::Skeleton, "Stencil",
                               trace::kNoDevice, input.size());
    detail::Runtime::instance().requireInit();
    validate(input.size());

    auto node = detail::makeExprNode(
        detail::ExprNode::Op::Stencil, fn_, args, workGroupSize_,
        {input.stateHandle()}, typeName<T>(), sizeof(T), input.size());
    auto params = std::make_shared<detail::StencilParams>();
    params->radius = shape_.radius;
    params->boundary = static_cast<int>(shape_.boundary);
    params->width = shape_.width;
    params->constArg = constArg_;
    node->stencil = std::move(params);

    Vector<T> output;
    if (detail::deferrable(args)) {
      detail::deferNode(node, output.stateHandle());
    } else {
      detail::evaluateNodeInto(node, output.stateHandle());
    }
    return output;
  }

private:
  void validate(std::size_t n) const {
    if (shape_.width > 0 && n % shape_.width != 0) {
      throw common::InvalidArgument(
          "Stencil input of " + std::to_string(n) +
          " element(s) is not a whole number of rows of width " +
          std::to_string(shape_.width));
    }
    if (n == 0 || shape_.boundary != Boundary::Wrap) {
      return;
    }
    // Wrap shifts indices by one period; a grid narrower than the
    // radius would need multiple wraps per cell.
    const std::size_t rows = shape_.width > 0 ? n / shape_.width : n;
    if (rows < shape_.radius ||
        (shape_.width > 0 && shape_.width < shape_.radius)) {
      throw common::InvalidArgument(
          "Stencil wrap boundary needs every grid extent >= radius " +
          std::to_string(shape_.radius));
    }
  }

  std::shared_ptr<const detail::UserFunction> fn_;
  StencilShape shape_;
  Arguments constArg_;
  std::size_t workGroupSize_ = 0;
};

} // namespace skelcl
