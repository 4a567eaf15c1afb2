// Evaluator for the lazy expression DAG. forceExprNode() is the single
// entry point every consumption site funnels into; it builds the fusion
// plan for the forced node *at force time* — children already
// materialized (extra readers, host mutations) are simply leaves — and
// executes it with exactly the launch geometry, event plumbing, and
// failure atomicity the eager skeletons had. A single-stage plan is the
// old eager execution; a fused plan runs one kernel where the chain ran
// several, with no intermediate vectors.
#include "skelcl/detail/expr.h"

#include <cstdint>
#include <unordered_map>

#include "skelcl/detail/fusion.h"
#include "skelcl/detail/irregular.h"
#include "skelcl/detail/runtime.h"
#include "skelcl/detail/scheduler.h"
#include "skelcl/detail/skeleton_common.h"
#include "skelcl/detail/source_utils.h"
#include "trace/recorder.h"

namespace skelcl::detail {

namespace {

/// Work-group size of the Reduce/Scan trees (powers of two; matches the
/// eager implementations so fused and unfused runs group elements — and
/// therefore round floating point — identically).
constexpr std::size_t kTreeWg = 256;
constexpr std::size_t kReduceMaxGroups = 64;

struct EvalGuard {
  explicit EvalGuard(bool& flag) : flag_(flag) { flag_ = true; }
  ~EvalGuard() { flag_ = false; }
  bool& flag_;
};

/// Depth of nested evaluations on this thread. Only a force at depth 0
/// is a true consumption point: forces issued from inside an evaluation
/// (materializing an unabsorbed child) must not re-enter the scheduler.
thread_local int t_evalDepth = 0;

struct DepthGuard {
  DepthGuard() { ++t_evalDepth; }
  ~DepthGuard() { --t_evalDepth; }
};

void evaluateNode(const std::shared_ptr<ExprNode>& node,
                  const std::shared_ptr<VectorStateBase>& out);

std::string saltFor(const FusionPlan& plan, bool fusionEnabled) {
  return std::string("fusion=") + (fusionEnabled ? "1" : "0") + ";" +
         plan.compositionKey;
}

/// Distinct leaf states in first-occurrence order. Binding happens per
/// occurrence; upload-piece consumption and dependency collection happen
/// once per distinct state (zip(a, a) must not double-consume a's
/// pieces — exactly the eager Zip's sameState special case).
std::vector<VectorStateBase*> distinctLeaves(const FusionPlan& plan) {
  std::vector<VectorStateBase*> distinct;
  for (const auto& leaf : plan.leaves) {
    bool seen = false;
    for (VectorStateBase* d : distinct) {
      if (d == leaf.get()) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      distinct.push_back(leaf.get());
    }
  }
  return distinct;
}

/// Stages every leaf on the devices, aligned to leaf 0's layout.
void alignLeaves(const FusionPlan& plan) {
  VectorStateBase& leaf0 = *plan.leaves.front();
  leaf0.ensureOnDevices();
  for (VectorStateBase* leaf : distinctLeaves(plan)) {
    if (leaf != &leaf0) {
      leaf->matchLayout(leaf0.distribution(), leaf0.singleDeviceIndex(),
                        leaf0.chunks());
    }
  }
}

// --- element-wise plans (Map/Zip roots) ---------------------------------

std::string elementwiseKernelName(const FusionPlan& plan) {
  if (plan.stages.size() > 1) {
    return "skelcl_fused";
  }
  return plan.leaves.size() == 1 ? "skelcl_map" : "skelcl_zip";
}

/// "__global const T0* skelcl_in0, ..., " — one read-only parameter per
/// leaf occurrence, opening every generated kernel's parameter list.
std::string leafParamDecls(const FusionPlan& plan) {
  std::string params;
  for (std::size_t i = 0; i < plan.leaves.size(); ++i) {
    params += "__global const " + plan.leafTypes[i] + "* skelcl_in" +
              std::to_string(i) + ", ";
  }
  return params;
}

/// An output-less ("void") plan calls the chain for its side effects on
/// argument vectors and declares no skelcl_out parameter.
std::string elementwiseSource(const FusionPlan& plan,
                              const std::string& outType) {
  const bool writes = outType != "void";
  return registeredTypeDefinitions() + plan.functionsSource +
         "\n__kernel void " + elementwiseKernelName(plan) + "(" +
         leafParamDecls(plan) +
         (writes ? "__global " + outType + "* skelcl_out, " : "") +
         "uint skelcl_n" + plan.argDecls +
         ") {\n"
         "  size_t skelcl_i = get_global_id(0);\n"
         "  if (skelcl_i < skelcl_n) {\n"
         "    " + (writes ? "skelcl_out[skelcl_i] = " : "") +
         substituteIndex(plan.loadExpr, "skelcl_i") +
         ";\n"
         "  }\n"
         "}\n";
}

/// Takes every distinct leaf's split-upload pieces on `deviceIndex`; a
/// leaf uploaded in one piece contributes its ready event to `deps`
/// instead.
std::vector<UploadPieces> takeLeafUploads(
    const std::vector<VectorStateBase*>& distinct, std::size_t deviceIndex,
    std::vector<ocl::Event>& deps) {
  std::vector<UploadPieces> pieces;
  pieces.reserve(distinct.size());
  for (VectorStateBase* leaf : distinct) {
    pieces.push_back(leaf->takeUploadPieces(deviceIndex));
    if (pieces.back().empty()) {
      appendEvent(deps, leaf->readyEventOn(deviceIndex));
    }
  }
  return pieces;
}

/// Runs a Map/Zip plan. A null `out` marks an output-less Map<T, void>
/// node: it writes no result and records no output event, and because it
/// may scatter anywhere in its argument vectors each launch waits for
/// the whole input chunk — no sub-launches against upload pieces.
void runElementwise(const std::shared_ptr<ExprNode>& node,
                    const std::shared_ptr<VectorStateBase>& out,
                    const FusionPlan& plan, Runtime& runtime,
                    const std::string& salt) {
  alignLeaves(plan);
  prepareStageArguments(plan);

  VectorStateBase& leaf0 = *plan.leaves.front();
  const std::vector<VectorStateBase*> distinct = distinctLeaves(plan);
  bool aliased = false;
  for (VectorStateBase* leaf : distinct) {
    if (leaf == out.get()) {
      aliased = true;
      break;
    }
  }
  if (out != nullptr && !aliased) {
    out->allocateLikeBase(leaf0);
  }

  ocl::Program& program =
      runtime.programFor(elementwiseSource(plan, node->outType), salt);
  const std::string kernelName = elementwiseKernelName(plan);

  // Per-device chunks are disjoint, so any visit order is legal (the
  // schedule fuzzer shuffles it); a fault on one device reports which.
  const auto& chunks = leaf0.chunks();
  for (std::size_t idx : runtime.chunkVisitOrder(chunks.size())) {
    const Chunk& chunk = chunks[idx];
    if (chunk.count == 0) {
      continue;
    }
    try {
      const auto& device = runtime.devices()[chunk.deviceIndex];
      ocl::Kernel kernel = program.createKernel(kernelName);
      std::size_t arg = 0;
      for (const auto& leaf : plan.leaves) {
        kernel.setArg(arg++,
                      leaf->chunkForDevice(chunk.deviceIndex).buffer);
      }
      if (out != nullptr) {
        kernel.setArg(arg++,
                      out->chunkForDevice(chunk.deviceIndex).buffer);
      }
      kernel.setArg(arg++, std::uint32_t(chunk.count));
      bindStageArguments(plan, kernel, arg, chunk.deviceIndex);

      // The launch depends on every distinct operand's upload — piecewise
      // where split, so sub-launches pipeline against whichever transfer
      // streams last — plus any stage argument vectors.
      std::vector<ocl::Event> deps;
      std::vector<UploadPieces> pieces;
      if (out != nullptr) {
        pieces = takeLeafUploads(distinct, chunk.deviceIndex, deps);
      } else {
        for (VectorStateBase* leaf : distinct) {
          appendEvent(deps, leaf->readyEventOn(chunk.deviceIndex));
        }
      }
      collectStageDeps(plan, deps, chunk.deviceIndex);

      const std::size_t wg =
          effectiveWorkGroupSize(node->workGroupSize, device);
      ocl::Event done =
          launchPipelined(runtime.queue(chunk.deviceIndex), kernel,
                          chunk.count, wg, deps, pieces);
      if (out != nullptr) {
        out->recordEventOn(chunk.deviceIndex, done);
      }
      recordStageEvents(plan, done, chunk.deviceIndex);
    } catch (ocl::ClError& e) {
      e.prependContext(plan.label + " skeleton on device " +
                       std::to_string(chunk.deviceIndex));
      throw;
    }
  }
  if (out != nullptr) {
    out->markDevicesModified();
  }
}

// --- Reduce plans --------------------------------------------------------

/// The associativity-only tree reduction kernel (see reduce.h for the
/// algorithm notes). `loadExpr` is the element expression at %IDX%; the
/// plain variant loads skelcl_in[i], the fused first pass evaluates the
/// absorbed chain inline.
///
/// `pipelined` emits the variant used for piecewise-pipelined first
/// passes: the logical group count arrives as an explicit argument and
/// the group index derives from the global id, so the kernel can be
/// enqueued as offset sub-ranges covering contiguous group spans while
/// computing exactly the same per-group partials.
std::string reduceKernelSource(const std::string& kernelName,
                               const std::string& leafParams,
                               const std::string& argDecls,
                               const std::string& t,
                               const std::string& combineName,
                               const std::string& loadExpr,
                               bool pipelined) {
  const std::string wg = std::to_string(kTreeWg);
  const std::string load = substituteIndex(loadExpr, "i");
  return "\n__kernel void " + kernelName + "(" + leafParams + "__global " +
         t + "* skelcl_out, uint skelcl_n" +
         (pipelined ? ", uint skelcl_num_groups" : "") + argDecls + ") {\n"
         "  __local " + t + " skelcl_scratch[" + wg + "];\n"
         "  __local int skelcl_flags[" + wg + "];\n"
         "  uint skelcl_lid = (uint)get_local_id(0);\n" +
         (pipelined
              ? "  size_t skelcl_group = get_global_id(0) / " + wg + ";\n"
                "  size_t skelcl_groups = (size_t)skelcl_num_groups;\n"
              : "  size_t skelcl_group = get_group_id(0);\n"
                "  size_t skelcl_groups = get_num_groups(0);\n") +
         "  size_t skelcl_span =\n"
         "      (skelcl_n + skelcl_groups - 1) / skelcl_groups;\n"
         "  size_t skelcl_gstart = skelcl_group * skelcl_span;\n"
         "  size_t skelcl_gend = min(skelcl_gstart + skelcl_span,\n"
         "                           (size_t)skelcl_n);\n"
         "  size_t skelcl_chunk = (skelcl_span + " + wg + " - 1) / " + wg +
         ";\n"
         "  size_t skelcl_start = skelcl_gstart + skelcl_lid * skelcl_chunk;\n"
         "  size_t skelcl_end = min(skelcl_start + skelcl_chunk,\n"
         "                          skelcl_gend);\n"
         "  int skelcl_have = 0;\n"
         "  " + t + " skelcl_acc;\n"
         "  for (size_t i = skelcl_start; i < skelcl_end; ++i) {\n"
         "    if (skelcl_have) {\n"
         "      skelcl_acc = " + combineName + "(skelcl_acc, " + load +
         ");\n"
         "    } else {\n"
         "      skelcl_acc = " + load + ";\n"
         "      skelcl_have = 1;\n"
         "    }\n"
         "  }\n"
         "  skelcl_flags[skelcl_lid] = skelcl_have;\n"
         "  if (skelcl_have) skelcl_scratch[skelcl_lid] = skelcl_acc;\n"
         "  barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  for (uint s = 1; s < " + wg + "; s <<= 1) {\n"
         "    if (skelcl_lid % (2 * s) == 0 &&\n"
         "        skelcl_lid + s < " + wg + ") {\n"
         "      if (skelcl_flags[skelcl_lid + s]) {\n"
         "        if (skelcl_flags[skelcl_lid]) {\n"
         "          skelcl_scratch[skelcl_lid] = " + combineName +
         "(skelcl_scratch[skelcl_lid], skelcl_scratch[skelcl_lid + s]);\n"
         "        } else {\n"
         "          skelcl_scratch[skelcl_lid] =\n"
         "              skelcl_scratch[skelcl_lid + s];\n"
         "          skelcl_flags[skelcl_lid] = 1;\n"
         "        }\n"
         "      }\n"
         "    }\n"
         "    barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  }\n"
         "  if (skelcl_lid == 0) {\n"
         "    skelcl_out[skelcl_group] = skelcl_scratch[0];\n"
         "  }\n"
         "}\n";
}

std::string plainReduceSource(const std::shared_ptr<ExprNode>& node) {
  const std::string& t = node->outType;
  return registeredTypeDefinitions() + node->fn->source() +
         reduceKernelSource("skelcl_reduce",
                            "__global const " + t + "* skelcl_in, ", "", t,
                            node->fn->name(), "skelcl_in[%IDX%]",
                            /*pipelined=*/false);
}

std::string fusedReduceSource(const std::shared_ptr<ExprNode>& node,
                              const FusionPlan& plan) {
  return registeredTypeDefinitions() + plan.functionsSource +
         reduceKernelSource("skelcl_mapreduce", leafParamDecls(plan),
                            plan.argDecls, node->outType, plan.rootFuncName,
                            plan.loadExpr, /*pipelined=*/true);
}

/// Tree-reduces `count` elements of `in` (element size `elem`) down to
/// one with the plain kernel; the first pass waits on `deps`. Mirrors
/// the eager Reduce::reduceOnDevice, including the count==1 passthrough.
std::pair<ocl::Buffer, ocl::Event> reducePlain(
    Runtime& runtime, ocl::Program& program, ocl::Buffer in,
    std::size_t count, std::size_t elem, std::size_t deviceIndex,
    std::vector<ocl::Event> deps) {
  auto& queue = runtime.queue(deviceIndex);
  const auto& device = runtime.devices()[deviceIndex];
  ocl::Event last;
  if (!deps.empty()) {
    last = deps.front();
  }
  while (count > 1) {
    const std::size_t groups =
        std::min(kReduceMaxGroups, (count + kTreeWg - 1) / kTreeWg);
    ocl::Buffer out =
        runtime.context().createBuffer(device, groups * elem);
    ocl::Kernel kernel = program.createKernel("skelcl_reduce");
    kernel.setArg(0, in);
    kernel.setArg(1, out);
    kernel.setArg(2, std::uint32_t(count));
    last = queue.enqueueNDRange(
        kernel, ocl::NDRange1D{groups * kTreeWg, kTreeWg}, deps);
    deps = {last};
    in = std::move(out);
    count = groups;
  }
  return {std::move(in), std::move(last)};
}

/// Enqueues the fused first pass, pipelined against split upload pieces
/// at group granularity. Tree group g reads the contiguous element span
/// [g*span, (g+1)*span), so a sub-launch covering groups [g0, g1) only
/// needs the pieces covering its last element: early groups reduce
/// while later pieces still stream over PCIe — the same double
/// buffering launchPipelined gives element-wise kernels. The pipelined
/// kernel derives its group index from the global id, so offset
/// sub-ranges compute bit-identical partials to one full launch.
ocl::Event launchReduceFirstPass(
    ocl::CommandQueue& queue, ocl::Kernel& kernel, std::size_t groups,
    std::size_t count, const std::vector<ocl::Event>& baseDeps,
    const std::vector<UploadPieces>& pieceLists) {
  const UploadPieces* driver = nullptr;
  for (const UploadPieces& list : pieceLists) {
    if (list.size() > 1 &&
        (driver == nullptr || list.size() > driver->size())) {
      driver = &list;
    }
  }
  // Pipelining pays only when each piece unlocks whole groups; with
  // fewer than ~2 groups per piece, run the classic single launch.
  if (driver == nullptr || groups < 2 * driver->size()) {
    std::vector<ocl::Event> deps = baseDeps;
    for (const UploadPieces& list : pieceLists) {
      if (!list.empty()) {
        appendEvent(deps, list.back().second);
      }
    }
    return queue.enqueueNDRange(
        kernel, ocl::NDRange1D{groups * kTreeWg, kTreeWg}, deps);
  }
  const std::size_t span = (count + groups - 1) / groups;
  ocl::Event last;
  std::size_t gBegin = 0;
  for (std::size_t p = 0; p < driver->size() && gBegin < groups; ++p) {
    // Groups fully covered by pieces [0, p]; the final piece flushes
    // the remainder.
    const std::size_t gEnd =
        (p + 1 == driver->size())
            ? groups
            : std::min(groups, (*driver)[p].first / span);
    if (gEnd <= gBegin) {
      continue;
    }
    std::vector<ocl::Event> deps = baseDeps;
    const std::size_t elemEnd = std::min(gEnd * span, count);
    for (const UploadPieces& list : pieceLists) {
      if (!list.empty()) {
        appendEvent(deps, pieceCovering(list, elemEnd));
      }
    }
    last = queue.enqueueNDRange(
        kernel,
        ocl::NDRange1D{(gEnd - gBegin) * kTreeWg, kTreeWg,
                       gBegin * kTreeWg},
        deps);
    gBegin = gEnd;
  }
  return last;
}

void runReduce(const std::shared_ptr<ExprNode>& node,
               const std::shared_ptr<VectorStateBase>& out,
               const FusionPlan& plan, Runtime& runtime,
               const std::string& salt) {
  alignLeaves(plan);
  prepareStageArguments(plan);

  VectorStateBase& leaf0 = *plan.leaves.front();
  const std::vector<VectorStateBase*> distinct = distinctLeaves(plan);
  const std::size_t elem = node->outElemSize;
  const bool fused = plan.fusedStages > 0;

  ocl::Program& plainProgram =
      runtime.programFor(plainReduceSource(node), salt);
  ocl::Program* fusedProgram =
      fused ? &runtime.programFor(fusedReduceSource(node, plan), salt)
            : nullptr;

  // Per-device partial reduction; under the copy distribution one copy
  // suffices. Partials stay in canonical chunk order (device order =
  // element order), so the combine below needs associativity only.
  struct Partial {
    ocl::Buffer buffer;
    ocl::Event ready;
    std::size_t deviceIndex;
  };
  std::vector<Partial> partials;
  const auto& chunks = leaf0.chunks();
  const bool copyDist = leaf0.distribution() == Distribution::Copy;
  for (const Chunk& chunk : chunks) {
    if (chunk.count == 0) {
      continue;
    }
    try {
      std::vector<ocl::Event> deps;
      ocl::Buffer in = chunk.buffer;
      std::size_t count = chunk.count;
      if (fused) {
        // Fused first pass: the absorbed chain evaluates inline while
        // the tree reduces — the reduce.map rewrite. Harvest any split
        // upload pieces so the tree groups can start on the prefix of
        // the input while its tail still streams.
        auto& queue = runtime.queue(chunk.deviceIndex);
        const auto& device = runtime.devices()[chunk.deviceIndex];
        collectStageDeps(plan, deps, chunk.deviceIndex);
        const std::vector<UploadPieces> pieces =
            takeLeafUploads(distinct, chunk.deviceIndex, deps);
        const std::size_t groups =
            std::min(kReduceMaxGroups, (count + kTreeWg - 1) / kTreeWg);
        ocl::Buffer mapped =
            runtime.context().createBuffer(device, groups * elem);
        ocl::Kernel kernel =
            fusedProgram->createKernel("skelcl_mapreduce");
        std::size_t arg = 0;
        for (const auto& leaf : plan.leaves) {
          kernel.setArg(arg++,
                        leaf->chunkForDevice(chunk.deviceIndex).buffer);
        }
        kernel.setArg(arg++, mapped);
        kernel.setArg(arg++, std::uint32_t(count));
        kernel.setArg(arg++, std::uint32_t(groups));
        bindStageArguments(plan, kernel, arg, chunk.deviceIndex);
        ocl::Event first = launchReduceFirstPass(queue, kernel, groups,
                                                 count, deps, pieces);
        recordStageEvents(plan, first, chunk.deviceIndex);
        deps = {first};
        in = std::move(mapped);
        count = groups;
      } else {
        appendEvent(deps, chunk.ready);
        for (VectorStateBase* leaf : distinct) {
          if (leaf != &leaf0) {
            appendEvent(deps, leaf->readyEventOn(chunk.deviceIndex));
          }
        }
        collectStageDeps(plan, deps, chunk.deviceIndex);
      }
      auto reduced = reducePlain(runtime, plainProgram, std::move(in),
                                 count, elem, chunk.deviceIndex,
                                 std::move(deps));
      partials.push_back(Partial{std::move(reduced.first),
                                 std::move(reduced.second),
                                 chunk.deviceIndex});
    } catch (ocl::ClError& e) {
      e.prependContext(plan.label + " skeleton on device " +
                       std::to_string(chunk.deviceIndex));
      throw;
    }
    if (copyDist) {
      break;
    }
  }
  COMMON_CHECK(!partials.empty());

  if (partials.size() == 1) {
    out->adoptDeviceBufferBase(std::move(partials[0].buffer), 1,
                               partials[0].deviceIndex,
                               std::move(partials[0].ready));
    return;
  }

  // Combine the per-device results on device 0 (see reduce.h): all reads
  // non-blocking, the staging upload waits on them through events, the
  // final value is consumed at the Scalar's getValue().
  std::vector<std::uint8_t> values(partials.size() * elem);
  std::vector<ocl::Event> reads;
  for (std::size_t i = 0; i < partials.size(); ++i) {
    reads.push_back(
        runtime.queue(partials[i].deviceIndex)
            .enqueueReadBuffer(partials[i].buffer, 0, elem,
                               values.data() + i * elem,
                               /*blocking=*/false, {partials[i].ready}));
  }
  try {
    const auto& device0 = runtime.devices()[0];
    ocl::Buffer staging =
        runtime.context().createBuffer(device0, values.size());
    ocl::Event staged = runtime.queue(0).enqueueWriteBuffer(
        staging, 0, values.size(), values.data(), reads);
    auto finalReduce =
        reducePlain(runtime, plainProgram, std::move(staging),
                    partials.size(), elem, 0, {staged});
    out->adoptDeviceBufferBase(std::move(finalReduce.first), 1, 0,
                               std::move(finalReduce.second));
  } catch (ocl::ClError& e) {
    e.prependContext(plan.label + " skeleton on device 0");
    throw;
  }
}

// --- Scan plans ----------------------------------------------------------

/// The per-work-group Blelloch block kernel plus the uniform add pass
/// (see scan.h for the algorithm notes). `loadExpr` is the element
/// expression at %IDX% feeding the up-sweep.
std::string scanBlockKernelSource(const std::string& leafParams,
                                  const std::string& argDecls,
                                  const std::string& t,
                                  const std::string& combineName,
                                  const std::string& identity,
                                  const std::string& loadExpr) {
  const std::string wg = std::to_string(kTreeWg);
  const std::string half = std::to_string(kTreeWg / 2);
  const std::string last = std::to_string(kTreeWg - 1);
  return "\n__kernel void skelcl_scan_block(" + leafParams + "__global " +
         t + "* skelcl_out, __global " + t +
         "* skelcl_sums, uint skelcl_n" + argDecls + ") {\n"
         "  __local " + t + " skelcl_tmp[" + wg + "];\n"
         "  uint skelcl_lid = (uint)get_local_id(0);\n"
         "  size_t skelcl_gid = get_global_id(0);\n"
         "  if (skelcl_gid < skelcl_n) {\n"
         "    skelcl_tmp[skelcl_lid] = " +
         substituteIndex(loadExpr, "skelcl_gid") +
         ";\n"
         "  } else {\n"
         "    skelcl_tmp[skelcl_lid] = " + identity + ";\n"
         "  }\n"
         "  barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  uint skelcl_offset = 1;\n"
         "  for (uint d = " + half + "; d > 0; d >>= 1) {\n"
         "    if (skelcl_lid < d) {\n"
         "      uint ai = skelcl_offset * (2 * skelcl_lid + 1) - 1;\n"
         "      uint bi = skelcl_offset * (2 * skelcl_lid + 2) - 1;\n"
         "      skelcl_tmp[bi] = " + combineName +
         "(skelcl_tmp[ai], skelcl_tmp[bi]);\n"
         "    }\n"
         "    skelcl_offset <<= 1;\n"
         "    barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  }\n"
         "  if (skelcl_lid == 0) {\n"
         "    skelcl_sums[get_group_id(0)] = skelcl_tmp[" + last + "];\n"
         "    skelcl_tmp[" + last + "] = " + identity + ";\n"
         "  }\n"
         "  barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  for (uint d = 1; d < " + wg + "; d <<= 1) {\n"
         "    skelcl_offset >>= 1;\n"
         "    if (skelcl_lid < d) {\n"
         "      uint ai = skelcl_offset * (2 * skelcl_lid + 1) - 1;\n"
         "      uint bi = skelcl_offset * (2 * skelcl_lid + 2) - 1;\n"
         "      " + t + " skelcl_t = skelcl_tmp[ai];\n"
         "      skelcl_tmp[ai] = skelcl_tmp[bi];\n"
         "      skelcl_tmp[bi] = " + combineName +
         "(skelcl_tmp[ai], skelcl_t);\n"
         "    }\n"
         "    barrier(CLK_LOCAL_MEM_FENCE);\n"
         "  }\n"
         "  if (skelcl_gid < skelcl_n) {\n"
         "    skelcl_out[skelcl_gid] = skelcl_tmp[skelcl_lid];\n"
         "  }\n"
         "}\n";
}

std::string scanAddKernelSource(const std::string& t,
                                const std::string& combineName) {
  return "\n__kernel void skelcl_scan_add(__global " + t +
         "* skelcl_data, __global const " + t +
         "* skelcl_offsets, uint skelcl_n) {\n"
         "  size_t skelcl_gid = get_global_id(0);\n"
         "  if (skelcl_gid < skelcl_n) {\n"
         "    skelcl_data[skelcl_gid] = " + combineName +
         "(skelcl_offsets[get_group_id(0)], skelcl_data[skelcl_gid]);\n"
         "  }\n"
         "}\n";
}

std::string plainScanSource(const std::shared_ptr<ExprNode>& node) {
  const std::string& t = node->outType;
  return registeredTypeDefinitions() + node->fn->source() +
         scanBlockKernelSource("__global const " + t + "* skelcl_in, ", "",
                               t, node->fn->name(), node->identityExpr,
                               "skelcl_in[%IDX%]") +
         scanAddKernelSource(t, node->fn->name());
}

std::string fusedScanSource(const std::shared_ptr<ExprNode>& node,
                            const FusionPlan& plan) {
  return registeredTypeDefinitions() + plan.functionsSource +
         scanBlockKernelSource(leafParamDecls(plan), plan.argDecls,
                               node->outType, plan.rootFuncName,
                               node->identityExpr, plan.loadExpr);
}

/// Finishes a scan whose level-0 block pass (`blocked`) left one sum per
/// work-group in `sums`: scans the sums with the plain block kernel,
/// recursing while they span several groups, then adds them back to
/// every block of `out` with the uniform-add pass.
ocl::Event scanBlockSums(Runtime& runtime, ocl::Program& program,
                         const ocl::Buffer& out, const ocl::Buffer& sums,
                         std::size_t n, std::size_t elem,
                         std::size_t deviceIndex, ocl::Event blocked) {
  const std::size_t groups = (n + kTreeWg - 1) / kTreeWg;
  if (groups <= 1) {
    return blocked;
  }
  auto& queue = runtime.queue(deviceIndex);
  const auto& device = runtime.devices()[deviceIndex];
  const std::size_t sumGroups = (groups + kTreeWg - 1) / kTreeWg;
  ocl::Buffer sumsScanned =
      runtime.context().createBuffer(device, groups * elem);
  ocl::Buffer sumSums =
      runtime.context().createBuffer(device, sumGroups * elem);

  ocl::Kernel block = program.createKernel("skelcl_scan_block");
  block.setArg(0, sums);
  block.setArg(1, sumsScanned);
  block.setArg(2, sumSums);
  block.setArg(3, std::uint32_t(groups));
  ocl::Event sumsBlocked = queue.enqueueNDRange(
      block, ocl::NDRange1D{sumGroups * kTreeWg, kTreeWg}, {blocked});
  ocl::Event sumsDone =
      scanBlockSums(runtime, program, sumsScanned, sumSums, groups, elem,
                    deviceIndex, std::move(sumsBlocked));

  ocl::Kernel add = program.createKernel("skelcl_scan_add");
  add.setArg(0, out);
  add.setArg(1, sumsScanned);
  add.setArg(2, std::uint32_t(n));
  return queue.enqueueNDRange(add, ocl::NDRange1D{groups * kTreeWg, kTreeWg},
                              {blocked, sumsDone});
}

void runScan(const std::shared_ptr<ExprNode>& node,
             const std::shared_ptr<VectorStateBase>& out,
             const FusionPlan& plan, Runtime& runtime,
             const std::string& salt) {
  // Single-device skeleton: gather the primary operand, align the rest.
  VectorStateBase& leaf0 = *plan.leaves.front();
  if (leaf0.distribution() != Distribution::Single) {
    leaf0.setDistribution(Distribution::Single, 0);
  }
  leaf0.ensureOnDevices();
  for (VectorStateBase* leaf : distinctLeaves(plan)) {
    if (leaf != &leaf0) {
      leaf->matchLayout(Distribution::Single, leaf0.singleDeviceIndex(),
                        leaf0.chunks());
    }
  }
  prepareStageArguments(plan);

  const std::size_t n = node->outCount;
  const std::size_t elem = node->outElemSize;
  const Chunk& chunk = leaf0.chunks().front();
  const std::size_t deviceIndex = chunk.deviceIndex;
  const auto& device = runtime.devices()[deviceIndex];

  ocl::Program& plainProgram =
      runtime.programFor(plainScanSource(node), salt);
  // Level 0 of a fused plan evaluates the absorbed chain while loading
  // the Blelloch tree; an unfused plan's single leaf binds the same way
  // to the plain block kernel. The recursion over block sums and the
  // uniform add pass read plain buffers either way.
  ocl::Program& level0Program =
      plan.fusedStages > 0
          ? runtime.programFor(fusedScanSource(node, plan), salt)
          : plainProgram;

  try {
    ocl::Buffer outBuf =
        runtime.context().createBuffer(device, n * elem);
    const std::size_t groups = (n + kTreeWg - 1) / kTreeWg;
    ocl::Buffer sums =
        runtime.context().createBuffer(device, groups * elem);

    std::vector<ocl::Event> deps;
    appendEvent(deps, chunk.ready);
    for (VectorStateBase* leaf : distinctLeaves(plan)) {
      if (leaf != &leaf0) {
        appendEvent(deps, leaf->readyEventOn(deviceIndex));
      }
    }
    collectStageDeps(plan, deps, deviceIndex);

    ocl::Kernel block = level0Program.createKernel("skelcl_scan_block");
    std::size_t arg = 0;
    for (const auto& leaf : plan.leaves) {
      block.setArg(arg++, leaf->chunkForDevice(deviceIndex).buffer);
    }
    block.setArg(arg++, outBuf);
    block.setArg(arg++, sums);
    block.setArg(arg++, std::uint32_t(n));
    bindStageArguments(plan, block, arg, deviceIndex);
    ocl::Event blocked =
        runtime.queue(deviceIndex)
            .enqueueNDRange(block, ocl::NDRange1D{groups * kTreeWg, kTreeWg},
                            deps);
    recordStageEvents(plan, blocked, deviceIndex);

    ocl::Event done = scanBlockSums(runtime, plainProgram, outBuf, sums, n,
                                    elem, deviceIndex, std::move(blocked));
    out->adoptDeviceBufferBase(std::move(outBuf), n, deviceIndex,
                               std::move(done));
  } catch (ocl::ClError& e) {
    e.prependContext(plan.label + " skeleton on device " +
                     std::to_string(deviceIndex));
    throw;
  }
}

void evaluateNode(const std::shared_ptr<ExprNode>& node,
                  const std::shared_ptr<VectorStateBase>& out) {
  EvalGuard guard(node->evaluating);
  DepthGuard depth;
  auto& runtime = Runtime::instance();
  runtime.requireInit();

  FusionPlan plan = buildFusionPlan(node, runtime.fusionEnabled());

  // Children the rewrite pass could not absorb run first, materializing
  // their intermediate vectors — the cost fusion exists to avoid, so it
  // is what the fusion counters measure.
  for (const auto& child : plan.materializeFirst) {
    if (child->evaluated) {
      continue;
    }
    forceExprNode(child);
    const std::uint64_t bytes =
        std::uint64_t(child->outCount) * child->outElemSize;
    runtime.noteIntermediate(bytes);
    if (trace::Recorder::enabled()) {
      trace::Recorder::instance().bumpCounter(
          "intermediate_bytes", trace::kNoDevice, trace::now(), bytes);
    }
  }
  if (plan.fusedStages > 0) {
    runtime.noteFusedEvaluation(plan.fusedStages);
  }

  const std::size_t spanSize =
      node->inputs.empty() ? 0 : node->inputs.front().state->size();
  trace::ScopedHostSpan span(trace::HostKind::Skeleton, plan.label.c_str(),
                             trace::kNoDevice, spanSize);
  const std::string salt = saltFor(plan, runtime.fusionEnabled());
  try {
    switch (node->op) {
      case ExprNode::Op::Map:
      case ExprNode::Op::Zip:
        runElementwise(node, out, plan, runtime, salt);
        break;
      case ExprNode::Op::Reduce:
        runReduce(node, out, plan, runtime, salt);
        break;
      case ExprNode::Op::Scan:
        runScan(node, out, plan, runtime, salt);
        break;
      case ExprNode::Op::Stencil:
        runStencil(node, out, plan, runtime, salt);
        break;
      case ExprNode::Op::SparseGather:
        runSparseGather(node, out, plan, runtime, salt);
        break;
    }
  } catch (...) {
    // A failed evaluation is never retried: the error already surfaced
    // to whoever forced the node, and a rerun could double-apply work.
    // Poison the node so later consumer flushes skip it, and detach it
    // from the output so reads do not force it again.
    node->evaluated = true;
    if (out != nullptr) {
      out->clearPending();
    }
    throw;
  }
  node->evaluated = true;
  if (out != nullptr) {
    out->clearPending();
  }
}

} // namespace

void forceExprNode(const std::shared_ptr<ExprNode>& node) {
  if (node == nullptr || node->evaluated || node->evaluating) {
    return;
  }
  // `node` may alias the output state's own pending_ member, which an
  // evaluation clears (adoptDeviceBufferBase does so mid-flight, and a
  // scheduler drain clears it from underneath us) — pin the node first
  // so it outlives that reset.
  std::shared_ptr<ExprNode> keep = node;
  // A force at the top of the evaluation stack is a true consumption
  // point: drain the async scheduler first, so every outstanding
  // independent job's commands are enqueued before this consumer's
  // blocking wait (the drain may evaluate `keep` itself — recheck).
  // Forces nested inside an evaluation, and forces issued *by* the
  // drain, fall through to the direct path.
  if (t_evalDepth == 0) {
    Scheduler& scheduler = Scheduler::instance();
    if (scheduler.shouldDrain()) {
      scheduler.drain(keep);
      if (keep->evaluated || keep->evaluating) {
        return;
      }
    }
  }
  std::shared_ptr<VectorStateBase> out = keep->output.lock();
  if (out == nullptr) {
    // The result vector died unread; the computation is dead code.
    keep->evaluated = true;
    return;
  }
  evaluateNode(keep, out);
}

bool deferrable(const Arguments& args) { return !args.hasVectorEntries(); }

std::shared_ptr<ExprNode> makeExprNode(
    ExprNode::Op op, std::shared_ptr<const UserFunction> fn,
    const Arguments& args, std::size_t workGroupSize,
    std::vector<std::shared_ptr<VectorStateBase>> inputs,
    std::string outType, std::size_t outElemSize, std::size_t outCount,
    std::string identityExpr) {
  auto node = std::make_shared<ExprNode>();
  node->op = op;
  node->fn = std::move(fn);
  node->identityExpr = std::move(identityExpr);
  node->args = args;
  node->workGroupSize = workGroupSize;
  node->outType = std::move(outType);
  node->outElemSize = outElemSize;
  node->outCount = outCount;

  node->inputs.reserve(inputs.size());
  for (auto& state : inputs) {
    ExprNode::Input input;
    input.node = state->pendingNode();
    input.state = std::move(state);
    if (input.node != nullptr && !input.node->evaluated) {
      input.node->fanout += 1;
    }
    node->inputs.push_back(std::move(input));
  }
  // Host mutations of an input must snapshot this node's value first.
  for (const ExprNode::Input& input : node->inputs) {
    input.state->addConsumer(node);
  }

  // Concrete inputs stage eagerly: upload faults surface at the call
  // site and Zip's geometry alignment (and Scan's gather) stay
  // observable right after the call — exactly as under eager execution.
  switch (op) {
    case ExprNode::Op::Map:
    case ExprNode::Op::Reduce: {
      const auto& in0 = node->inputs.front().state;
      if (!in0->hasPending()) {
        in0->ensureOnDevices();
      }
      break;
    }
    case ExprNode::Op::Zip: {
      const auto& left = node->inputs[0].state;
      const auto& right = node->inputs[1].state;
      if (!left->hasPending()) {
        left->ensureOnDevices();
        if (!right->hasPending() && right.get() != left.get()) {
          right->matchLayout(left->distribution(),
                            left->singleDeviceIndex(), left->chunks());
        }
      } else if (!right->hasPending() && right.get() != left.get()) {
        right->ensureOnDevices();
      }
      break;
    }
    case ExprNode::Op::Scan: {
      const auto& in0 = node->inputs.front().state;
      if (!in0->hasPending()) {
        if (in0->distribution() != Distribution::Single) {
          in0->setDistribution(Distribution::Single, 0);
        }
        in0->ensureOnDevices();
      }
      break;
    }
    case ExprNode::Op::Stencil: {
      // Layout (row-aligned block vs. single-device fallback) is picked
      // at evaluation time; staging here would only guess. Upload faults
      // still surface at the call site for concrete inputs.
      const auto& in0 = node->inputs.front().state;
      if (!in0->hasPending()) {
        in0->ensureOnDevices();
      }
      break;
    }
    case ExprNode::Op::SparseGather: {
      // The gather reads arbitrary columns: the dense operand is
      // replicated on every device, like a vector argument would be.
      const auto& in0 = node->inputs.front().state;
      if (!in0->hasPending()) {
        if (in0->distribution() != Distribution::Copy) {
          in0->setDistribution(Distribution::Copy, 0);
        }
        in0->ensureOnDevices();
      }
      break;
    }
  }
  return node;
}

void deferNode(const std::shared_ptr<ExprNode>& node,
               const std::shared_ptr<VectorStateBase>& out) {
  node->output = out;
  out->installPending(node, node->outCount);
  // Register the job with the async scheduler: the next top-of-stack
  // consumption point dispatches every outstanding job, not just the
  // one being consumed. No-op under SKELCL_ASYNC=0.
  Scheduler::instance().noteDeferred(node);
}

void evaluateNodeInto(const std::shared_ptr<ExprNode>& node,
                      const std::shared_ptr<VectorStateBase>& out) {
  if (out != nullptr) {
    // `out` may alias an input, in whose consumer list this very node
    // already sits; the guard keeps it from forcing itself while the
    // *old* value's deferred readers are snapshotted.
    EvalGuard guard(node->evaluating);
    out->forcePending();
    out->forceConsumers();
    node->output = out;
  }
  evaluateNode(node, out);
}

} // namespace skelcl::detail
