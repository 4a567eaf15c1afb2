// Lazy expression DAG (ROADMAP: "lazy expression graph with rewrite-rule
// fusion"). A skeleton call no longer launches kernels: it builds an
// ExprNode describing the computation and installs it on the result
// vector's state as a *pending producer*. Nothing runs until a true
// consumption point forces the node — a host read (operator[], iteration,
// download), a Scalar read, an explicit redistribution, or a side-
// effecting skeleton that may observe or overwrite the data. At force
// time a rewrite pass (detail/fusion.h) walks the DAG and fuses chains
// of element-wise stages into single kernels:
//
//   map f . map g        ->  map (f . g)
//   zip f . map g        ->  zip with the g-load spliced in
//   reduce f . map g     ->  mapReduce (the MapReduce skeleton is a
//                             facade that composes exactly this)
//   scan f . map g       ->  scan with a fused first level
//
// Eager-evaluation rule: a call whose Arguments reference Vectors is
// evaluated immediately at the call site (its semantics depend on — and
// may mutate — external state the host is free to change afterwards), as
// are explicit-output forms and output-less Map<T, void> nodes (pure side
// effects). Eager nodes still absorb deferred producers of their input;
// laziness applies to pure chains.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "skelcl/arguments.h"

namespace skelcl::detail {

class CsrStateBase;
class UserFunction;

/// Stencil root descriptor (see skelcl/stencil.h). Irregular roots are
/// opaque to the fusion rewriter; the evaluator in detail/irregular.cpp
/// consumes this verbatim. `boundary` mirrors skelcl::Boundary (0 =
/// clamp, 1 = wrap, 2 = constant); `constArg` carries the out-of-range
/// fill value as a ready-made kernel argument (bound with prefix "cv_")
/// when the policy is constant.
struct StencilParams {
  std::size_t radius = 1;
  int boundary = 0;
  std::size_t width = 0; // row length of a row-major 2D grid; 0 = 1D
  Arguments constArg;
};

/// SparseGather root descriptor: the CSR operand (not a VectorState —
/// its per-device rowPtr slices overlap at the cut rows) plus the fold
/// that combines a row's gathered products (ExprNode::fn is the gather).
struct SparseParams {
  std::shared_ptr<CsrStateBase> csr;
  std::shared_ptr<const UserFunction> combine;
};

/// One deferred skeleton invocation. Nodes are immutable once built;
/// `evaluated`/`output` are the evaluation bookkeeping.
class ExprNode {
public:
  enum class Op { Map, Zip, Reduce, Scan, Stencil, SparseGather };

  /// One input operand: the vector state read, plus the node that was
  /// pending on it at *build* time (null for concrete data). The child
  /// link is what the fusion pass follows; the state is the fallback
  /// leaf when the child is not absorbed (or was forced meanwhile).
  struct Input {
    std::shared_ptr<VectorStateBase> state;
    std::shared_ptr<ExprNode> node;
  };

  Op op = Op::Map;
  std::shared_ptr<const UserFunction> fn; // customizing function
  std::string identityExpr; // Scan/SparseGather: identity expression
  Arguments args;           // additional arguments (scalars/structs only
                            // when the node is deferred)
  std::size_t workGroupSize = 0; // user override; 0 = SkelCL default
  std::vector<Input> inputs;

  std::string outType;          // result element type name ("void":
                                // output-less Map, run eagerly)
  std::size_t outElemSize = 0;  // sizeof(result element)
  std::size_t outCount = 0;     // result element count
  std::size_t fanout = 0;       // deferred parents reading this node

  /// Irregular-root descriptors; set by the skeleton right after
  /// makeExprNode, before the node is deferred or evaluated.
  std::shared_ptr<StencilParams> stencil; // Op::Stencil only
  std::shared_ptr<SparseParams> sparse;   // Op::SparseGather only

  bool evaluated = false;
  bool evaluating = false; // re-entrancy guard during evaluation
  std::weak_ptr<VectorStateBase> output;
};

/// True when `args` allows deferring the call: vector (and vector-size)
/// arguments pin a call to eager evaluation.
bool deferrable(const Arguments& args);

/// Builds a DAG node. Records each input's currently-pending producer as
/// the child edge, registers the node as a consumer on every input state
/// (so host mutations snapshot it first), and eagerly stages concrete
/// inputs on the devices — upload faults and Zip geometry alignment stay
/// observable at the call site, exactly as under eager execution.
std::shared_ptr<ExprNode> makeExprNode(
    ExprNode::Op op, std::shared_ptr<const UserFunction> fn,
    const Arguments& args, std::size_t workGroupSize,
    std::vector<std::shared_ptr<VectorStateBase>> inputs,
    std::string outType, std::size_t outElemSize, std::size_t outCount,
    std::string identityExpr = "");

/// Defers `node`: installs it as `out`'s pending producer. The node
/// materializes when `out` (or a mutation of its inputs) forces it.
void deferNode(const std::shared_ptr<ExprNode>& node,
               const std::shared_ptr<VectorStateBase>& out);

/// Evaluates `node` into `out` immediately (eager call sites: explicit
/// outputs, vector-argument calls). `out`'s old value is snapshotted for
/// any deferred readers first. A null `out` runs an output-less Map node
/// (outType "void", Map<T, void>) for its side effects only.
void evaluateNodeInto(const std::shared_ptr<ExprNode>& node,
                      const std::shared_ptr<VectorStateBase>& out);

} // namespace skelcl::detail
