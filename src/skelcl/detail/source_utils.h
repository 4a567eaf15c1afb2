// User-supplied OpenCL-C function strings, lexed once (UserFunction),
// and the combine redistribution that launches one (copy -> block).
#pragma once

#include <string>
#include <vector>

#include "ocl/ocl.h"

namespace skelcl::detail {

/// A customizing function as the user passed it (paper Listing 1: plain
/// OpenCL-C source, helpers before it), lexed once. Immutable;
/// Runtime::userFunction shares one per distinct source per init() cycle.
class UserFunction {
public:
  /// Throws common::InvalidArgument when `source` does not lex or
  /// defines no function.
  explicit UserFunction(std::string source);

  const std::string& source() const noexcept { return source_; }

  /// The customizing function: the last function defined at the top
  /// level (earlier ones are helpers). Skeleton kernels call it.
  const std::string& name() const noexcept { return name_; }

  /// The source with `prefix` spliced in before every use of a top-level
  /// function's name, calls and definitions alike; member accesses,
  /// struct fields and comments keep theirs. Fusion gives each stage its
  /// own prefix, so stages that define the same names stay apart.
  std::string renamed(const std::string& prefix) const;

private:
  std::string source_;
  std::string name_;
  std::vector<std::size_t> uses_; // byte offsets of the name uses
};

struct Chunk;

/// Collapses a copy distribution into a block distribution with a user
/// combine operator, entirely device-side (paper Sec. IV-B: "reduce
/// (element-wise add) all copies of error image"). `copies` holds one
/// chunk per device in device order; `blocks` arrives with offsets and
/// counts laid out and leaves with each block's buffer and ready event.
/// Every block is seeded from its own device's copy, then the element-
/// wise kernel
///   __kernel void skelcl_combine(__global T* dst, __global const T* src,
///                                uint n) { dst[i] = f(dst[i], src[i]); }
/// folds in every other device's copy of the same region. `copies` is
/// never modified, so on failure the caller keeps its old chunks.
void combineCopiesIntoBlocks(const std::vector<Chunk>& copies,
                             std::vector<Chunk>& blocks,
                             std::size_t elemSize,
                             const std::string& elementType,
                             const UserFunction& combine);

/// The concatenated OpenCL-side definitions of every registered user
/// struct type, prepended to all generated kernels.
std::string registeredTypeDefinitions();

} // namespace skelcl::detail
