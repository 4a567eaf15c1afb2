#include "skelcl/detail/fusion.h"

#include <algorithm>

#include "skelcl/detail/source_utils.h"

namespace skelcl::detail {

namespace {

/// Transitive absorption stops here. Chains this deep are pathological;
/// the cap bounds generated-source size and the argument list length.
constexpr std::size_t kMaxStages = 16;

const char* opName(ExprNode::Op op) {
  switch (op) {
    case ExprNode::Op::Map: return "Map";
    case ExprNode::Op::Zip: return "Zip";
    case ExprNode::Op::Reduce: return "Reduce";
    case ExprNode::Op::Scan: return "Scan";
    case ExprNode::Op::Stencil: return "Stencil";
    case ExprNode::Op::SparseGather: return "SparseGather";
  }
  return "?";
}

/// True when `input`'s producer can be spliced into the kernel of its
/// `parentOp` parent, whose plan holds `stages` stages: the producer is a
/// still-deferred element-wise stage (Map or Zip) that only this parent
/// reads. Stencil/SparseGather parents read their input through a
/// packed/gathered access pattern the load-splice rewrite cannot express,
/// so their children always materialize first.
bool absorbable(const ExprNode::Input& input, ExprNode::Op parentOp,
                std::size_t stages) {
  const std::shared_ptr<ExprNode>& child = input.node;
  return (parentOp == ExprNode::Op::Map || parentOp == ExprNode::Op::Zip ||
          parentOp == ExprNode::Op::Reduce || parentOp == ExprNode::Op::Scan) &&
         child != nullptr && !child->evaluated && !child->evaluating &&
         (child->op == ExprNode::Op::Map || child->op == ExprNode::Op::Zip) &&
         child->fanout == 1 && stages < kMaxStages;
}

class Emitter {
public:
  /// A fusing emitter absorbs what absorbable() allows and prefixes each
  /// stage's names; otherwise every deferred child materializes first.
  Emitter(FusionPlan& plan, bool fuses) : plan_(plan), fuses_(fuses) {}

  /// Emits `node` as stage k (= current stage count): splices its
  /// (renamed) functions and argument declarations into the plan, then
  /// recurses into its inputs. Returns the node's value expression at
  /// %IDX% for element-wise ops; Reduce/Scan roots instead deposit
  /// their element-load expression in plan.loadExpr.
  std::string emitStage(const std::shared_ptr<ExprNode>& node) {
    const std::size_t k = plan_.stages.size();
    const std::string fnPrefix =
        fuses_ ? "skelcl_f" + std::to_string(k) + "_" : "";
    FusionStage stage;
    stage.node = node;
    stage.argPrefix = fuses_ ? "f" + std::to_string(k) + "_" : "";
    stage.funcName = fnPrefix + node->fn->name();
    plan_.stages.push_back(stage);
    plan_.functionsSource += node->fn->renamed(fnPrefix) + "\n";
    plan_.argDecls += node->args.declSuffix(stage.argPrefix);

    std::vector<std::string> loads;
    loads.reserve(node->inputs.size());
    for (const ExprNode::Input& input : node->inputs) {
      loads.push_back(emitLoad(input, node->op));
    }

    switch (node->op) {
      case ExprNode::Op::Map:
        return stage.funcName + "(" + loads[0] +
               node->args.callSuffix(stage.argPrefix) + ")";
      case ExprNode::Op::Zip:
        return stage.funcName + "(" + loads[0] + ", " + loads[1] +
               node->args.callSuffix(stage.argPrefix) + ")";
      case ExprNode::Op::Reduce:
      case ExprNode::Op::Scan:
      case ExprNode::Op::Stencil:
      case ExprNode::Op::SparseGather:
        plan_.rootFuncName = stage.funcName;
        plan_.loadExpr = loads[0];
        return "";
    }
    return "";
  }

  void finish(const std::shared_ptr<ExprNode>& root) {
    if (plan_.stages.size() == 1) {
      plan_.label = opName(root->op);
    } else {
      plan_.label = "Fused(";
      for (std::size_t i = 0; i < plan_.stages.size(); ++i) {
        if (i != 0) {
          plan_.label += "∘"; // ∘ — root first: f∘g applies g first
        }
        plan_.label += plan_.stages[i].node->fn->name();
      }
      plan_.label += ")";
    }
    std::string& key = plan_.compositionKey;
    key = opName(root->op);
    for (const FusionStage& stage : plan_.stages) {
      key += ';';
      key += opName(stage.node->op);
      key += ':';
      key += stage.node->fn->name();
    }
    key += ";leaves=";
    key += std::to_string(plan_.leaves.size());
  }

private:
  std::string emitLoad(const ExprNode::Input& input, ExprNode::Op parentOp) {
    if (fuses_ && absorbable(input, parentOp, plan_.stages.size())) {
      ++plan_.fusedStages;
      return emitStage(input.node);
    }
    const std::shared_ptr<ExprNode>& child = input.node;
    if (child != nullptr && !child->evaluated && !child->evaluating) {
      // The child stays a separate launch (rewrites off, non-element-
      // wise, or other readers need its vector anyway).
      plan_.materializeFirst.push_back(child);
    }
    const std::size_t idx = plan_.leaves.size();
    plan_.leaves.push_back(input.state);
    plan_.leafTypes.push_back(input.state->elementTypeName());
    return "skelcl_in" + std::to_string(idx) + "[%IDX%]";
  }

  FusionPlan& plan_;
  bool fuses_;
};

} // namespace

FusionPlan buildFusionPlan(const std::shared_ptr<ExprNode>& root,
                           bool fusionEnabled) {
  // Absorption starts at the root's inputs, so they decide whether the
  // plan fuses. Only a fusing plan renames: "fusion found nothing" and
  // "fusion disabled" must build the same program.
  const bool fuses =
      fusionEnabled &&
      std::any_of(root->inputs.begin(), root->inputs.end(),
                  [&](const ExprNode::Input& input) {
                    return absorbable(input, root->op, /*stages=*/1);
                  });
  FusionPlan plan;
  Emitter emitter(plan, fuses);
  const std::string rootExpr = emitter.emitStage(root);
  if (root->op == ExprNode::Op::Map || root->op == ExprNode::Op::Zip) {
    plan.loadExpr = rootExpr;
  }
  emitter.finish(root);
  return plan;
}

std::string substituteIndex(const std::string& expr,
                            const std::string& idx) {
  static const std::string kPlaceholder = "%IDX%";
  std::string out;
  out.reserve(expr.size());
  std::size_t pos = 0;
  while (pos < expr.size()) {
    const std::size_t found = expr.find(kPlaceholder, pos);
    if (found == std::string::npos) {
      out.append(expr, pos, expr.size() - pos);
      break;
    }
    out.append(expr, pos, found - pos);
    out += idx;
    pos = found + kPlaceholder.size();
  }
  return out;
}

void prepareStageArguments(const FusionPlan& plan) {
  for (const FusionStage& stage : plan.stages) {
    stage.node->args.prepare();
  }
}

std::size_t bindStageArguments(const FusionPlan& plan, ocl::Kernel& kernel,
                               std::size_t firstIndex,
                               std::size_t deviceIndex) {
  std::size_t at = firstIndex;
  for (const FusionStage& stage : plan.stages) {
    stage.node->args.apply(kernel, at, deviceIndex);
    at += stage.node->args.count();
  }
  return at;
}

void collectStageDeps(const FusionPlan& plan, std::vector<ocl::Event>& deps,
                      std::size_t deviceIndex) {
  for (const FusionStage& stage : plan.stages) {
    stage.node->args.collectDeps(deps, deviceIndex);
  }
}

void recordStageEvents(const FusionPlan& plan, const ocl::Event& event,
                       std::size_t deviceIndex) {
  for (const FusionStage& stage : plan.stages) {
    stage.node->args.recordEvent(event, deviceIndex);
  }
}

} // namespace skelcl::detail
