// Rewrite-rule fusion pass over the lazy expression DAG (detail/expr.h).
//
// buildFusionPlan() walks a node's producer chain at force time and
// decides, per input edge, whether the child stage is *absorbed* into
// the parent's kernel or *materialized* as its own launch first. A child
// is absorbed when rewriting is enabled, the child is a still-deferred
// element-wise stage (Map or Zip), and this parent is its only reader —
// the classic rules map f . map g -> map (f.g), zip absorption, and
// reduce/scan-of-map, applied transitively up to a stage cap.
//
// Fusion happens at the OpenCL-C source level: every absorbed stage's
// customizing function is spliced into one translation unit, renamed
// with a per-stage prefix (skelcl_f<k>_, UserFunction::renamed) to avoid
// capture between stages, and the chain becomes a single load
// *expression* evaluated in the consumer's kernel — no intermediate
// buffer, no extra launch. A plan that absorbs nothing renames nothing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "skelcl/detail/expr.h"

namespace skelcl::detail {

/// One stage of a (possibly fused) kernel: the node it came from plus
/// the capture-safe names its functions and arguments got.
struct FusionStage {
  std::shared_ptr<ExprNode> node;
  std::string funcName;  // possibly prefix-renamed customizing function
  std::string argPrefix; // prefix its Arguments use in the kernel
};

/// The executable shape of one forced node after rewriting.
struct FusionPlan {
  /// Concrete input vectors, one entry per *occurrence* in the fused
  /// expression, in load order: occurrence i is kernel parameter
  /// skelcl_in<i>.
  std::vector<std::shared_ptr<VectorStateBase>> leaves;
  std::vector<std::string> leafTypes;

  /// Still-deferred children that were NOT absorbed (extra readers, or
  /// rewriting disabled): they must be forced — materializing their
  /// intermediate vectors — before this plan launches.
  std::vector<std::shared_ptr<ExprNode>> materializeFirst;

  /// Absorbed stages, root first. Their Arguments are bound in this
  /// order after the fixed kernel parameters.
  std::vector<FusionStage> stages;

  std::string functionsSource; // renamed user sources, concatenated
  /// Expression producing the (element-wise part of the) result for the
  /// element at index %IDX%. For Map/Zip roots this is the full result;
  /// for Reduce/Scan roots it is the element feeding the root operator.
  std::string loadExpr;
  std::string rootFuncName; // Reduce/Scan: root operator after renaming
  std::string argDecls;     // concatenated declSuffix of all stages

  std::size_t fusedStages = 0; // children absorbed (0 = single stage)
  std::string label;           // trace/error label, e.g. "Fused(f∘g)"
  std::string compositionKey;  // cache-key component naming the shape
};

/// Builds the plan for `root`. With `fusionEnabled` false no child is
/// ever absorbed — every stage launches separately, the differential
/// baseline — but the same evaluator runs the plan either way.
FusionPlan buildFusionPlan(const std::shared_ptr<ExprNode>& root,
                           bool fusionEnabled);

/// Replaces every %IDX% in `expr` with `idx`.
std::string substituteIndex(const std::string& expr, const std::string& idx);

// Stage-argument plumbing shared by every plan evaluator (dense and
// irregular): each stage's Arguments, in plan order.

/// Forces deferred readers of, and uploads, every stage's vector
/// arguments before the launches.
void prepareStageArguments(const FusionPlan& plan);

/// Binds every stage's arguments from kernel parameter `firstIndex` on;
/// returns the index after the last one.
std::size_t bindStageArguments(const FusionPlan& plan, ocl::Kernel& kernel,
                               std::size_t firstIndex,
                               std::size_t deviceIndex);

/// Appends the events a launch on `deviceIndex` must wait for.
void collectStageDeps(const FusionPlan& plan, std::vector<ocl::Event>& deps,
                      std::size_t deviceIndex);

/// Records `event` as the last writer of every stage's vector arguments.
void recordStageEvents(const FusionPlan& plan, const ocl::Event& event,
                       std::size_t deviceIndex);

} // namespace skelcl::detail
