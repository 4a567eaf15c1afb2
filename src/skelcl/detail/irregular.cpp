// Evaluators for the irregular skeleton roots. Both follow the plan
// scaffolding of expr.cpp's dense evaluators (argument binding, chunk
// visit order, per-device event chains, failure atomicity via the
// caller's poison-on-throw) but own their launch geometry:
//
// Stencil — block-distributes the input on *row-aligned* chunk
// boundaries, copies each chunk's halo rows from its neighbors with
// cross-device buffer copies (D2H+H2D engines), packs a per-chunk
// padded buffer resolving the boundary policy device-side, and runs the
// windowed compute kernel in three slices: the interior slice depends
// only on the chunk's own data, so it overlaps the halo transfers; the
// two R-row border slices wait for their halo. Degenerate geometry
// (fewer rows than the radius on any device, a single device, an empty
// vector) falls back to the Single distribution — the same gather rule
// Scan uses — where no halo exists at all.
//
// SparseGather — the matrix rows are block-partitioned (CsrState fixed
// that geometry at upload), the dense operand is copy-distributed, and
// one work-item folds one row's gathered values with the combine
// function. No inter-device traffic: the gather indexes the full
// replicated operand.
#include "skelcl/detail/irregular.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "skelcl/detail/csr_state.h"
#include "skelcl/detail/runtime.h"
#include "skelcl/detail/skeleton_common.h"
#include "skelcl/detail/source_utils.h"
#include "skelcl/vector.h"
#include "trace/recorder.h"

namespace skelcl::detail {

namespace {

enum Boundary { kClamp = 0, kWrap = 1, kConstant = 2 };

/// Name Arguments::declSuffix("cv_") gives the constant fill value.
constexpr const char* kConstValue = "skelcl_cv_arg0";

void noteHaloBytes(std::uint64_t bytes) {
  if (trace::Recorder::enabled()) {
    trace::Recorder::instance().bumpCounter("halo_bytes", trace::kNoDevice,
                                            trace::now(), bytes);
  }
}

// --- stencil codegen -----------------------------------------------------

/// Statements resolving `skelcl_g` (a signed row — or 1D element — index
/// that may lie outside [0, total)) per the boundary policy and
/// assigning `skelcl_v` from `load`. Constant loads the fill argument on
/// the out-of-range side instead.
std::string resolveEdge(int boundary, const std::string& load,
                        const std::string& indent) {
  switch (boundary) {
    case kWrap:
      return indent + "if (skelcl_g < 0) skelcl_g += (int)skelcl_total;\n" +
             indent +
             "if (skelcl_g >= (int)skelcl_total) skelcl_g -= "
             "(int)skelcl_total;\n" +
             indent + "skelcl_v = " + load + ";\n";
    case kConstant:
      return indent +
             "if (skelcl_g < 0 || skelcl_g >= (int)skelcl_total) {\n" +
             indent + "  skelcl_v = " + std::string(kConstValue) + ";\n" +
             indent + "} else {\n" + indent + "  skelcl_v = " + load +
             ";\n" + indent + "}\n";
    default: // clamp
      return indent + "if (skelcl_g < 0) skelcl_g = 0;\n" + indent +
             "if (skelcl_g >= (int)skelcl_total) skelcl_g = "
             "(int)skelcl_total - 1;\n" +
             indent + "skelcl_v = " + load + ";\n";
  }
}

/// The pack kernel fills padded element range [p0, p0+pn) of the chunk's
/// halo-padded buffer. Each padded cell is either a halo row shipped
/// from a neighbor chunk (`skelcl_top`/`skelcl_bot`, present when the
/// matching `hastop`/`hasbot` flag is set), a plain local element, or a
/// boundary-policy resolve against the chunk's own data (single-device
/// wrap, the clamp/constant edges). It branches on the *padded* row, so
/// halo buffer row k always holds exactly the value padded row k needs —
/// under every policy, including wrap pulling the last rows of the grid
/// into device 0's top halo.
std::string packKernelSource(const StencilParams& P, const std::string& t) {
  const std::size_t W = P.width == 0 ? 1 : P.width;
  const bool is2D = P.width > 0;
  const std::string R = std::to_string(P.radius);
  const std::string Ru = R + "u";
  const std::string Wu = std::to_string(W) + "u";
  const std::string PWu = std::to_string(is2D ? W + 2 * P.radius : 1) + "u";

  std::string src =
      "\n__kernel void skelcl_stencil_pack(__global const " + t +
      "* skelcl_in, __global const " + t +
      "* skelcl_top, __global const " + t + "* skelcl_bot, __global " + t +
      "* skelcl_pad, uint skelcl_p0, uint skelcl_pn, uint skelcl_lrows, "
      "uint skelcl_base, uint skelcl_total, uint skelcl_hastop, "
      "uint skelcl_hasbot" +
      P.constArg.declSuffix("cv_") +
      ") {\n"
      "  size_t skelcl_gid = get_global_id(0);\n"
      "  if (skelcl_gid < skelcl_pn) {\n"
      "    uint skelcl_idx = skelcl_p0 + (uint)skelcl_gid;\n"
      "    " + t + " skelcl_v;\n";

  if (!is2D) {
    const std::string load = "skelcl_in[(uint)skelcl_g - skelcl_base]";
    src +=
        "    uint skelcl_p = skelcl_idx;\n"
        "    if (skelcl_p < " + Ru + " && skelcl_hastop != 0u) {\n"
        "      skelcl_v = skelcl_top[skelcl_p];\n"
        "    } else if (skelcl_p >= skelcl_lrows + " + Ru +
        " && skelcl_hasbot != 0u) {\n"
        "      skelcl_v = skelcl_bot[skelcl_p - skelcl_lrows - " + Ru +
        "];\n"
        "    } else {\n"
        "      int skelcl_g = (int)(skelcl_base + skelcl_p) - " + R +
        ";\n" +
        resolveEdge(P.boundary, load, "      ") +
        "    }\n";
  } else {
    const std::string load =
        "skelcl_in[((uint)skelcl_g - skelcl_base) * " + Wu +
        " + (uint)skelcl_c]";
    const std::string rowPart =
        "    if (skelcl_p < " + Ru + " && skelcl_hastop != 0u) {\n"
        "      skelcl_v = skelcl_top[skelcl_p * " + Wu +
        " + (uint)skelcl_c];\n"
        "    } else if (skelcl_p >= skelcl_lrows + " + Ru +
        " && skelcl_hasbot != 0u) {\n"
        "      skelcl_v = skelcl_bot[(skelcl_p - skelcl_lrows - " + Ru +
        ") * " + Wu + " + (uint)skelcl_c];\n"
        "    } else {\n"
        "      int skelcl_g = (int)(skelcl_base + skelcl_p) - " + R +
        ";\n" +
        resolveEdge(P.boundary, load, "      ") +
        "    }\n";
    src +=
        "    uint skelcl_p = skelcl_idx / " + PWu + ";\n"
        "    uint skelcl_q = skelcl_idx - skelcl_p * " + PWu + ";\n"
        "    int skelcl_c = (int)skelcl_q - " + R + ";\n";
    const std::string Wi = std::to_string(W);
    switch (P.boundary) {
      case kWrap:
        src += "    if (skelcl_c < 0) skelcl_c += " + Wi +
               ";\n"
               "    if (skelcl_c >= " + Wi + ") skelcl_c -= " + Wi +
               ";\n" +
               rowPart;
        break;
      case kConstant:
        src += "    if (skelcl_c < 0 || skelcl_c >= " + Wi +
               ") {\n"
               "      skelcl_v = " + std::string(kConstValue) +
               ";\n"
               "    } else {\n" +
               rowPart + "    }\n";
        break;
      default: // clamp
        src += "    if (skelcl_c < 0) skelcl_c = 0;\n"
               "    if (skelcl_c >= " + Wi + ") skelcl_c = " + Wi +
               " - 1;\n" +
               rowPart;
        break;
    }
  }
  src +=
      "    skelcl_pad[skelcl_idx] = skelcl_v;\n"
      "  }\n"
      "}\n";
  return src;
}

/// The compute kernel applies the user function to local output rows
/// [r0, r0 + rn): it receives a pointer to the window's top-left corner
/// in the padded buffer (plus the padded row stride in 2D), so the
/// function indexes the window relative to its own position — the
/// classic out-of-place stencil contract, center at offset R (1D) or
/// (R, R) (2D).
std::string computeKernelSource(const StencilParams& P, const std::string& t,
                                const std::string& funcName,
                                const std::string& argDecls,
                                const std::string& callSuffix) {
  const bool is2D = P.width > 0;
  std::string src = "\n__kernel void skelcl_stencil(__global const " + t +
                    "* skelcl_pad, __global " + t +
                    "* skelcl_out, uint skelcl_r0, uint skelcl_en" +
                    argDecls +
                    ") {\n"
                    "  size_t skelcl_gid = get_global_id(0);\n"
                    "  if (skelcl_gid < skelcl_en) {\n";
  if (!is2D) {
    src += "    size_t skelcl_i = (size_t)skelcl_r0 + skelcl_gid;\n"
           "    skelcl_out[skelcl_i] = " + funcName +
           "(skelcl_pad + skelcl_i" + callSuffix + ");\n";
  } else {
    const std::string Wu = std::to_string(P.width) + "u";
    const std::string PWu = std::to_string(P.width + 2 * P.radius) + "u";
    src += "    uint skelcl_j = skelcl_r0 + (uint)skelcl_gid / " + Wu +
           ";\n"
           "    uint skelcl_c = (uint)skelcl_gid % " + Wu +
           ";\n"
           "    skelcl_out[(size_t)skelcl_j * " + Wu +
           " + skelcl_c] = " + funcName + "(skelcl_pad + ((size_t)skelcl_j * " +
           PWu + " + skelcl_c), " + PWu + callSuffix + ");\n";
  }
  src += "  }\n"
         "}\n";
  return src;
}

/// The chunk whose rows cover `row` (chunks are ascending and disjoint).
const Chunk* chunkContainingRow(const std::vector<Chunk>& chunks,
                                std::size_t row, std::size_t W) {
  for (const Chunk& c : chunks) {
    const std::size_t r0 = c.offset / W;
    if (row >= r0 && row < r0 + c.count / W) {
      return &c;
    }
  }
  return nullptr;
}

/// Generated program for a stencil node: a halo/boundary *pack* kernel
/// plus the windowed compute kernel, in one source so one programFor
/// covers both.
std::string stencilProgramSource(const std::shared_ptr<ExprNode>& node,
                                 const FusionPlan& plan) {
  const StencilParams& P = *node->stencil;
  const FusionStage& stage = plan.stages.front();
  return registeredTypeDefinitions() + plan.functionsSource +
         packKernelSource(P, node->outType) +
         computeKernelSource(P, node->outType, plan.rootFuncName,
                             plan.argDecls,
                             node->args.callSuffix(stage.argPrefix));
}

/// Generated program for a sparse-gather node: the one-row-per-work-item
/// gather/combine loop.
std::string sparseProgramSource(const std::shared_ptr<ExprNode>& node,
                                const FusionPlan& plan) {
  const std::string& t = node->outType;
  const FusionStage& stage = plan.stages.front();
  return registeredTypeDefinitions() + plan.functionsSource +
         node->sparse->combine->source() + "\n" +
         "\n__kernel void skelcl_spgather(__global const uint* "
         "skelcl_rowptr, __global const uint* skelcl_colidx, "
         "__global const " + t + "* skelcl_vals, __global const " + t +
         "* skelcl_x, __global " + t +
         "* skelcl_out, uint skelcl_rows, uint skelcl_nnzbase" +
         plan.argDecls +
         ") {\n"
         "  size_t skelcl_i = get_global_id(0);\n"
         "  if (skelcl_i < skelcl_rows) {\n"
         "    " + t + " skelcl_acc = " + node->identityExpr +
         ";\n"
         "    uint skelcl_b = skelcl_rowptr[skelcl_i] - skelcl_nnzbase;\n"
         "    uint skelcl_e = skelcl_rowptr[skelcl_i + 1] - "
         "skelcl_nnzbase;\n"
         "    for (uint skelcl_k = skelcl_b; skelcl_k < skelcl_e; "
         "++skelcl_k) {\n"
         "      skelcl_acc = " + node->sparse->combine->name() +
         "(skelcl_acc, " + plan.rootFuncName +
         "(skelcl_vals[skelcl_k], skelcl_x[skelcl_colidx[skelcl_k]]" +
         node->args.callSuffix(stage.argPrefix) +
         "));\n"
         "    }\n"
         "    skelcl_out[skelcl_i] = skelcl_acc;\n"
         "  }\n"
         "}\n";
}

} // namespace

void runStencil(const std::shared_ptr<ExprNode>& node,
                const std::shared_ptr<VectorStateBase>& out,
                const FusionPlan& plan, Runtime& runtime,
                const std::string& salt) {
  const StencilParams& P = *node->stencil;
  const std::size_t R = P.radius;
  const bool is2D = P.width > 0;
  const std::size_t W = is2D ? P.width : 1;
  const std::size_t elem = node->outElemSize;
  const bool wrap = P.boundary == kWrap;
  VectorStateBase& in = *plan.leaves.front();

  const std::size_t n = in.size();
  COMMON_CHECK(n % W == 0); // validated at the call site
  const std::size_t totalRows = n / W;

  // Geometry: a multi-device run needs every device's row share to
  // cover the radius, so each halo is one contiguous copy from exactly
  // one neighbor chunk. Degenerate shares fall back to a single device.
  const std::size_t devices = runtime.deviceCount();
  bool multi = devices > 1 && totalRows > 0;
  std::vector<std::size_t> rowCounts;
  if (multi) {
    rowCounts = runtime.blockPartition(totalRows);
    for (std::size_t rows : rowCounts) {
      if (rows < R) {
        multi = false;
        break;
      }
    }
  }
  if (multi) {
    // Row-aligned block layout (blockPartition splits elements; a 2D
    // stencil must not cut a grid row across devices). An iterated
    // stencil hits matchLayout's same-layout fast path after the first
    // step and stays resident.
    std::vector<Chunk> layout;
    std::size_t row = 0;
    for (std::size_t d = 0; d < devices; ++d) {
      Chunk c;
      c.deviceIndex = d;
      c.offset = row * W;
      c.count = rowCounts[d] * W;
      row += rowCounts[d];
      layout.push_back(std::move(c));
    }
    in.matchLayout(Distribution::Block, 0, layout);
  } else {
    if (in.distribution() != Distribution::Single) {
      in.setDistribution(Distribution::Single, 0);
    }
    in.ensureOnDevices();
  }
  prepareStageArguments(plan);
  out->allocateLikeBase(in);

  ocl::Program& program =
      runtime.programFor(stencilProgramSource(node, plan), salt);
  const auto& chunks = in.chunks();
  const std::size_t pw = is2D ? W + 2 * R : 1; // padded row length
  const std::size_t haloBytes = R * W * elem;

  for (std::size_t idx : runtime.chunkVisitOrder(chunks.size())) {
    const Chunk& chunk = chunks[idx];
    if (chunk.count == 0) {
      continue;
    }
    try {
      const std::size_t d = chunk.deviceIndex;
      const auto& device = runtime.devices()[d];
      auto& queue = runtime.queue(d);
      const std::size_t rows = chunk.count / W;
      const std::size_t rowBase = chunk.offset / W;
      ocl::Buffer pad =
          runtime.context().createBuffer(device, (rows + 2 * R) * pw * elem);

      // Halo transfers, enqueued on the *destination* queue: the copy
      // occupies the source's D2H and this device's H2D engine, leaving
      // the compute engine free for the interior slice below.
      const bool hasTop = multi && (rowBase > 0 || wrap);
      const bool hasBot = multi && (rowBase + rows < totalRows || wrap);
      ocl::Buffer top;
      ocl::Buffer bot;
      ocl::Event topReady;
      ocl::Event botReady;
      if (hasTop) {
        const std::size_t srcRow =
            rowBase > 0 ? rowBase - R : totalRows - R;
        const Chunk& src = *chunkContainingRow(chunks, srcRow, W);
        top = runtime.context().createBuffer(device, haloBytes);
        std::vector<ocl::Event> deps;
        appendEvent(deps, src.ready);
        topReady = queue.enqueueCopyBuffer(
            src.buffer, (srcRow - src.offset / W) * W * elem, top, 0,
            haloBytes, deps);
        noteHaloBytes(haloBytes);
      }
      if (hasBot) {
        const std::size_t next = rowBase + rows;
        const std::size_t srcRow = next < totalRows ? next : 0;
        const Chunk& src = *chunkContainingRow(chunks, srcRow, W);
        bot = runtime.context().createBuffer(device, haloBytes);
        std::vector<ocl::Event> deps;
        appendEvent(deps, src.ready);
        botReady = queue.enqueueCopyBuffer(
            src.buffer, (srcRow - src.offset / W) * W * elem, bot, 0,
            haloBytes, deps);
        noteHaloBytes(haloBytes);
      }

      const std::size_t wg = effectiveWorkGroupSize(node->workGroupSize,
                                                    device);
      auto pack = [&](std::size_t pBegin, std::size_t pCount,
                      std::vector<ocl::Event> deps) {
        ocl::Kernel kernel = program.createKernel("skelcl_stencil_pack");
        std::size_t arg = 0;
        kernel.setArg(arg++, chunk.buffer);
        kernel.setArg(arg++, hasTop ? top : chunk.buffer);
        kernel.setArg(arg++, hasBot ? bot : chunk.buffer);
        kernel.setArg(arg++, pad);
        kernel.setArg(arg++, std::uint32_t(pBegin));
        kernel.setArg(arg++, std::uint32_t(pCount));
        kernel.setArg(arg++, std::uint32_t(rows));
        kernel.setArg(arg++, std::uint32_t(rowBase));
        kernel.setArg(arg++, std::uint32_t(totalRows));
        kernel.setArg(arg++, std::uint32_t(hasTop ? 1 : 0));
        kernel.setArg(arg++, std::uint32_t(hasBot ? 1 : 0));
        if (!P.constArg.empty()) {
          P.constArg.apply(kernel, arg, d);
        }
        return queue.enqueueNDRange(
            kernel, ocl::NDRange1D{roundUp(pCount, wg), wg}, deps);
      };
      auto compute = [&](std::size_t r0, std::size_t rn,
                         std::vector<ocl::Event> deps) {
        ocl::Kernel kernel = program.createKernel("skelcl_stencil");
        std::size_t arg = 0;
        kernel.setArg(arg++, pad);
        kernel.setArg(arg++, out->chunkForDevice(d).buffer);
        kernel.setArg(arg++, std::uint32_t(r0));
        kernel.setArg(arg++, std::uint32_t(rn * W));
        bindStageArguments(plan, kernel, arg, d);
        collectStageDeps(plan, deps, d);
        return queue.enqueueNDRange(
            kernel, ocl::NDRange1D{roundUp(rn * W, wg), wg}, deps);
      };

      // The interior pack needs only the chunk's own upload; the border
      // packs additionally wait for their halo copy (and still read the
      // chunk for the policy-resolved cells).
      std::vector<ocl::Event> own;
      appendEvent(own, chunk.ready);
      ocl::Event interiorPacked = pack(R * pw, rows * pw, own);
      std::vector<ocl::Event> topDeps = own;
      appendEvent(topDeps, topReady);
      ocl::Event topPacked = pack(0, R * pw, topDeps);
      std::vector<ocl::Event> botDeps = own;
      appendEvent(botDeps, botReady);
      ocl::Event botPacked = pack((rows + R) * pw, R * pw, botDeps);

      // Compute in three slices chained into one final event: the
      // interior rows [R, rows-R) depend only on the interior pack, so
      // they overlap the halo exchanges still in flight; the two R-row
      // borders wait for their halo pack.
      ocl::Event done;
      if (rows >= 2 * R) {
        ocl::Event mid;
        if (rows > 2 * R) {
          mid = compute(R, rows - 2 * R, {interiorPacked});
        }
        std::vector<ocl::Event> tDeps;
        tDeps.push_back(topPacked);
        tDeps.push_back(interiorPacked);
        appendEvent(tDeps, mid);
        ocl::Event topDone = compute(0, R, tDeps);
        done = compute(rows - R, R, {botPacked, interiorPacked, topDone});
      } else {
        // Chunk narrower than two radii (single-device fallback only):
        // every output row touches both edges; one slice.
        done = compute(0, rows, {topPacked, interiorPacked, botPacked});
      }
      out->recordEventOn(d, done);
      recordStageEvents(plan, done, d);
    } catch (ocl::ClError& e) {
      e.prependContext(plan.label + " skeleton on device " +
                       std::to_string(chunk.deviceIndex));
      throw;
    }
  }
  out->markDevicesModified();
}

void runSparseGather(const std::shared_ptr<ExprNode>& node,
                     const std::shared_ptr<VectorStateBase>& out,
                     const FusionPlan& plan, Runtime& runtime,
                     const std::string& salt) {
  CsrStateBase& csr = *node->sparse->csr;
  VectorStateBase& x = *plan.leaves.front();

  // The gather may touch any column on any device: replicate the dense
  // operand. The matrix's row partition (fixed at its first upload)
  // dictates the output layout.
  if (x.distribution() != Distribution::Copy) {
    x.setDistribution(Distribution::Copy, 0);
  }
  x.ensureOnDevices();
  csr.ensureOnDevices();
  prepareStageArguments(plan);

  const std::vector<CsrChunk>& cchunks = csr.chunks();
  std::vector<Chunk> layout;
  layout.reserve(cchunks.size());
  for (const CsrChunk& cc : cchunks) {
    Chunk c;
    c.deviceIndex = cc.deviceIndex;
    c.offset = cc.rowBegin;
    c.count = cc.rowCount;
    layout.push_back(std::move(c));
  }
  out->allocateBlockLayoutBase(layout);

  ocl::Program& program =
      runtime.programFor(sparseProgramSource(node, plan), salt);
  for (std::size_t idx : runtime.chunkVisitOrder(cchunks.size())) {
    const CsrChunk& cc = cchunks[idx];
    if (cc.rowCount == 0) {
      continue; // zero-row share (more devices than rows): no launch
    }
    try {
      const std::size_t d = cc.deviceIndex;
      const auto& device = runtime.devices()[d];
      ocl::Kernel kernel = program.createKernel("skelcl_spgather");
      std::size_t arg = 0;
      kernel.setArg(arg++, cc.rowPtr);
      kernel.setArg(arg++, cc.colIdx);
      kernel.setArg(arg++, cc.values);
      kernel.setArg(arg++, x.chunkForDevice(d).buffer);
      kernel.setArg(arg++, out->chunkForDevice(d).buffer);
      kernel.setArg(arg++, std::uint32_t(cc.rowCount));
      kernel.setArg(arg++, std::uint32_t(cc.nnzBegin));
      bindStageArguments(plan, kernel, arg, d);

      std::vector<ocl::Event> deps;
      appendEvent(deps, cc.ready);
      appendEvent(deps, x.readyEventOn(d));
      collectStageDeps(plan, deps, d);
      const std::size_t wg = effectiveWorkGroupSize(node->workGroupSize,
                                                    device);
      ocl::Event done = runtime.queue(d).enqueueNDRange(
          kernel, ocl::NDRange1D{roundUp(cc.rowCount, wg), wg}, deps);
      out->recordEventOn(d, done);
      recordStageEvents(plan, done, d);
    } catch (ocl::ClError& e) {
      e.prependContext(plan.label + " skeleton on device " +
                       std::to_string(cc.deviceIndex));
      throw;
    }
  }
  out->markDevicesModified();
}

} // namespace skelcl::detail
