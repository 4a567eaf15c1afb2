#include "skelcl/detail/source_utils.h"

#include <algorithm>

#include "clc/lexer.h"
#include "skelcl/detail/runtime.h"
#include "skelcl/detail/skeleton_common.h"
#include "skelcl/vector.h"
#include "skelcl/type_name.h"

namespace skelcl::detail {

namespace {

/// Names of every function defined at the top level of the preprocessed
/// token stream `tokens`, in definition order.
std::vector<std::string> definedFunctionNames(
    const std::vector<clc::Token>& tokens) {
  std::vector<std::string> names;
  int depth = 0;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    depth += (tokens[i].kind == clc::TokKind::LBrace) -
             (tokens[i].kind == clc::TokKind::RBrace);
    if (depth != 0 || tokens[i].kind != clc::TokKind::Identifier ||
        tokens[i + 1].kind != clc::TokKind::LParen) {
      continue;
    }
    // A *definition* has '{' after its parameter list's closing ')'.
    std::size_t j = i + 1;
    for (int parens = 0; j < tokens.size(); ++j) {
      parens += (tokens[j].kind == clc::TokKind::LParen) -
                (tokens[j].kind == clc::TokKind::RParen);
      if (parens == 0) {
        break;
      }
    }
    if (j + 1 < tokens.size() &&
        tokens[j + 1].kind == clc::TokKind::LBrace) {
      names.push_back(tokens[i].text);
    }
  }
  return names;
}

} // namespace

UserFunction::UserFunction(std::string source) : source_(std::move(source)) {
  // Definitions come from the preprocessed stream (a macro may expand to
  // one), name uses from the raw tokens, whose offsets index the source.
  std::vector<clc::Token> tokens;
  std::vector<std::string> names;
  try {
    tokens = clc::lex(source_);
    names = definedFunctionNames(clc::preprocess(tokens));
  } catch (const clc::CompileError& e) {
    throw common::InvalidArgument(
        std::string("cannot parse user function: ") + e.what());
  }
  if (names.empty()) {
    throw common::InvalidArgument(
        "no function definition found in user source: " + source_);
  }
  name_ = names.back();
  int fieldDepth = 0; // > 0 inside a struct body
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const clc::TokKind kind = tokens[i].kind;
    if (fieldDepth > 0) {
      fieldDepth += (kind == clc::TokKind::LBrace) -
                    (kind == clc::TokKind::RBrace);
    } else if (kind == clc::TokKind::KwStruct) {
      // A struct's tag and fields may share a function's name.
      i += tokens[i + 1].kind == clc::TokKind::Identifier;
      if (tokens[i + 1].kind == clc::TokKind::LBrace) {
        fieldDepth = 1;
        ++i;
      }
    } else if (kind == clc::TokKind::Identifier &&
               (i == 0 || (tokens[i - 1].kind != clc::TokKind::Dot &&
                           tokens[i - 1].kind != clc::TokKind::Arrow)) &&
               std::find(names.begin(), names.end(), tokens[i].text) !=
                   names.end()) {
      uses_.push_back(tokens[i].offset);
    }
  }
}

std::string UserFunction::renamed(const std::string& prefix) const {
  std::string out;
  out.reserve(source_.size() + uses_.size() * prefix.size());
  std::size_t pos = 0;
  for (const std::size_t use : uses_) {
    out.append(source_, pos, use - pos);
    out += prefix;
    pos = use;
  }
  out.append(source_, pos, std::string::npos);
  return out;
}

std::string registeredTypeDefinitions() {
  return TypeRegistry::instance().definitions();
}

void combineCopiesIntoBlocks(const std::vector<Chunk>& copies,
                             std::vector<Chunk>& blocks,
                             std::size_t elemSize,
                             const std::string& elementType,
                             const UserFunction& combine) {
  std::string source = registeredTypeDefinitions();
  source += combine.source();
  source += "\n__kernel void skelcl_combine(__global " + elementType +
            "* dst, __global const " + elementType +
            "* src, uint n) {\n"
            "  size_t i = get_global_id(0);\n"
            "  if (i < n) dst[i] = " +
            combine.name() +
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
