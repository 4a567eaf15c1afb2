// The Map skeleton (paper Sec. III-B, Eq. 1):
//
//   map f [x0, ..., xn-1] = [f(x0), ..., f(xn-1)]
//
// Customized by a unary function given as OpenCL-C source. Additional
// arguments (Sec. III-C) extend the function's parameter list; a
// Map<T, void> produces no output vector and works purely through
// side-effects on vector arguments — the form list-mode OSEM uses.
//
// Invocation is lazy: a call builds an expression-DAG node
// (detail/expr.h) and nothing launches until the result is consumed, so
// chains of element-wise skeletons fuse into single kernels
// (detail/fusion.h). Calls with vector arguments and explicit-output
// forms evaluate eagerly, as does Map<T, void>: an output-less DAG node
// run at the call site through the same evaluator, so it too absorbs a
// deferred producer of its input.
#pragma once

#include <memory>
#include <string>

#include "skelcl/arguments.h"
#include "skelcl/detail/expr.h"
#include "skelcl/detail/skeleton_common.h"
#include "skelcl/vector.h"
#include "trace/recorder.h"

namespace skelcl {

template <typename Tin, typename Tout = Tin>
class Map {
public:
  /// `source` is the customizing function, e.g.
  ///   Map<float> dbl("float f(float x) { return 2.0f * x; }");
  explicit Map(const std::string& source)
      : fn_(detail::Runtime::instance().userFunction(source)) {}

  /// Optional tuning knob; the paper notes the work-group size "can have
  /// a considerable impact on performance". 0 = SkelCL default (256).
  void setWorkGroupSize(std::size_t size) { workGroupSize_ = size; }

  Vector<Tout> operator()(const Vector<Tin>& input) {
    return (*this)(input, Arguments{});
  }

  Vector<Tout> operator()(const Vector<Tin>& input, const Arguments& args) {
    Vector<Tout> output;
    run(input, args, output, /*explicitOutput=*/false);
    return output;
  }

  /// Explicit-output form; `output` may alias `input`.
  void operator()(const Vector<Tin>& input, const Arguments& args,
                  Vector<Tout>& output) {
    run(input, args, output, /*explicitOutput=*/true);
  }

private:
  void run(const Vector<Tin>& input, const Arguments& args,
           Vector<Tout>& output, bool explicitOutput) {
    // The call-site span: covers node construction (and, on the eager
    // paths, the whole launch). Fused evaluation emits its own span.
    trace::ScopedHostSpan span(trace::HostKind::Skeleton, "Map",
                               trace::kNoDevice, input.size());
    detail::Runtime::instance().requireInit();
    auto node = detail::makeExprNode(
        detail::ExprNode::Op::Map, fn_, args, workGroupSize_,
        {input.stateHandle()}, typeName<Tout>(),
        sizeof(Tout), input.size());
    if (!explicitOutput && detail::deferrable(args)) {
      detail::deferNode(node, output.stateHandle());
    } else {
      detail::evaluateNodeInto(node, output.stateHandle());
    }
  }

  std::shared_ptr<const detail::UserFunction> fn_;
  std::size_t workGroupSize_ = 0;
};

/// Map without an output vector: the user function returns void and works
/// through side effects on Arguments vectors (paper Sec. IV-B). Always
/// eager — there is no result vector whose read could force it later.
template <typename Tin>
class Map<Tin, void> {
public:
  explicit Map(const std::string& source)
      : fn_(detail::Runtime::instance().userFunction(source)) {}

  void setWorkGroupSize(std::size_t size) { workGroupSize_ = size; }

  void operator()(const Vector<Tin>& input, const Arguments& args) {
    trace::ScopedHostSpan span(trace::HostKind::Skeleton, "Map<void>",
                               trace::kNoDevice, input.size());
    detail::Runtime::instance().requireInit();
    auto node = detail::makeExprNode(
        detail::ExprNode::Op::Map, fn_, args, workGroupSize_,
        {input.stateHandle()}, "void", /*outElemSize=*/0,
        input.size());
    detail::evaluateNodeInto(node, /*out=*/nullptr);
  }

private:
  std::shared_ptr<const detail::UserFunction> fn_;
  std::size_t workGroupSize_ = 0;
};

} // namespace skelcl
