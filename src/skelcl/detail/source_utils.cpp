#include "skelcl/detail/source_utils.h"

#include "clc/lexer.h"
#include "skelcl/detail/runtime.h"
#include "skelcl/detail/skeleton_common.h"
#include "skelcl/vector.h"
#include "skelcl/type_name.h"

namespace skelcl::detail {

namespace {

/// Names of every function defined at the top level of `source`, in
/// definition order. The shared walk behind userFunctionName() and
/// collectTopLevelFunctionNames().
std::vector<std::string> topLevelFunctionNames(const std::string& source) {
  std::vector<clc::Token> tokens;
  try {
    tokens = clc::lexAndPreprocess(source);
  } catch (const clc::CompileError& e) {
    throw common::InvalidArgument(
        std::string("cannot parse user function: ") + e.what());
  }
  std::vector<std::string> names;
  int depth = 0;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    const clc::Token& tok = tokens[i];
    if (tok.kind == clc::TokKind::LBrace) ++depth;
    if (tok.kind == clc::TokKind::RBrace) --depth;
    if (depth == 0 && tok.kind == clc::TokKind::Identifier &&
        tokens[i + 1].kind == clc::TokKind::LParen) {
      // A *definition* has '{' after its parameter list's closing ')'.
      int parens = 0;
      std::size_t j = i + 1;
      for (; j < tokens.size(); ++j) {
        if (tokens[j].kind == clc::TokKind::LParen) ++parens;
        if (tokens[j].kind == clc::TokKind::RParen && --parens == 0) {
          break;
        }
      }
      if (j + 1 < tokens.size() &&
          tokens[j + 1].kind == clc::TokKind::LBrace) {
        names.push_back(tok.text);
      }
    }
  }
  return names;
}

bool isIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

} // namespace

std::string userFunctionName(const std::string& source) {
  // The customizing function is the *last* function defined at the top
  // level; earlier definitions are helpers it may call.
  const std::vector<std::string> names = topLevelFunctionNames(source);
  if (names.empty()) {
    throw common::InvalidArgument(
        "no function definition found in user source: " + source);
  }
  return names.back();
}

std::vector<std::string> collectTopLevelFunctionNames(
    const std::string& source) {
  return topLevelFunctionNames(source);
}

std::string renameUserFunctions(const std::string& source,
                                const std::string& prefix) {
  if (prefix.empty()) {
    return source;
  }
  const std::vector<std::string> names = topLevelFunctionNames(source);
  std::string out = source;
  for (const std::string& name : names) {
    std::string replaced;
    replaced.reserve(out.size());
    std::size_t pos = 0;
    while (pos < out.size()) {
      const std::size_t found = out.find(name, pos);
      if (found == std::string::npos) {
        replaced.append(out, pos, out.size() - pos);
        break;
      }
      replaced.append(out, pos, found - pos);
      const bool startsWord =
          found == 0 || !isIdentChar(out[found - 1]);
      const std::size_t after = found + name.size();
      const bool endsWord = after >= out.size() || !isIdentChar(out[after]);
      // Member accesses keep their names: `s.name` / `p->name` refer to
      // struct fields, not the function being renamed.
      const bool memberAccess =
          (found >= 1 && out[found - 1] == '.') ||
          (found >= 2 && out[found - 2] == '-' && out[found - 1] == '>');
      if (startsWord && endsWord && !memberAccess) {
        replaced += prefix + name;
      } else {
        replaced.append(name);
      }
      pos = after;
    }
    out = std::move(replaced);
  }
  return out;
}

std::string registeredTypeDefinitions() {
  return TypeRegistry::instance().definitions();
}

void combineCopiesIntoBlocks(const std::vector<Chunk>& copies,
                             std::vector<Chunk>& blocks,
                             std::size_t elemSize,
                             const std::string& elementType,
                             const std::string& combineSource) {
  const std::string name = userFunctionName(combineSource);
  std::string source = registeredTypeDefinitions();
  source += combineSource;
  source += "\n__kernel void skelcl_combine(__global " + elementType +
            "* dst, __global const " + elementType +
            "* src, uint n) {\n"
            "  size_t i = get_global_id(0);\n"
            "  if (i < n) dst[i] = " +
            name +
            "(dst[i], src[i]);\n"
            "}\n";
  auto& runtime = Runtime::instance();
  ocl::Program& program = runtime.programFor(source, "");

  for (Chunk& block : blocks) {
    const std::size_t d = block.deviceIndex;
    const std::size_t bytes = block.count * elemSize;
    try {
      auto& queue = runtime.queue(d);
      const auto& device = runtime.devices()[d];
      block.buffer = runtime.context().createBuffer(
          device, std::max<std::size_t>(1, bytes));
      if (block.count == 0) {
        // This device's share rounded to zero elements; seeding or
        // folding it would enqueue zero-size device commands.
        continue;
      }
      // Own portion seeds the block (depends on the chunk being valid).
      std::vector<ocl::Event> seedDeps;
      appendEvent(seedDeps, copies[d].ready);
      ocl::Event seeded = queue.enqueueCopyBuffer(
          copies[d].buffer, block.offset * elemSize, block.buffer, 0, bytes,
          seedDeps);
      // Fold in every other device's copy of the same region. Two temp
      // buffers double-buffer the pipeline: the cross-device copy of
      // portion j+1 streams over PCIe into one temp while the combine
      // kernel folds the other temp into the block.
      ocl::Buffer temps[2];
      ocl::Event tempFree[2]; // last kernel that *read* each temp
      temps[0] = runtime.context().createBuffer(
          device, std::max<std::size_t>(1, bytes));
      temps[1] = runtime.context().createBuffer(
          device, std::max<std::size_t>(1, bytes));
      ocl::Event folded = seeded;
      std::size_t slot = 0;
      for (std::size_t j = 0; j < copies.size(); ++j) {
        if (j == d) {
          continue;
        }
        std::vector<ocl::Event> copyDeps;
        appendEvent(copyDeps, copies[j].ready);
        appendEvent(copyDeps, tempFree[slot]);
        ocl::Event copied = queue.enqueueCopyBuffer(
            copies[j].buffer, block.offset * elemSize, temps[slot], 0,
            bytes, copyDeps);
        ocl::Kernel kernel = program.createKernel("skelcl_combine");
        kernel.setArg(0, block.buffer);
        kernel.setArg(1, temps[slot]);
        kernel.setArg(2, std::uint32_t(block.count));
        const std::size_t wg =
            effectiveWorkGroupSize(/*userChoice=*/0, device);
        folded = queue.enqueueNDRange(
            kernel, ocl::NDRange1D{roundUp(block.count, wg), wg},
            {copied, folded});
        tempFree[slot] = folded;
        slot ^= 1;
      }
      block.ready = folded;
    } catch (ocl::ClError& e) {
      e.prependContext("combine redistribution on device " +
                       std::to_string(d));
      throw;
    }
  }
}

} // namespace skelcl::detail
