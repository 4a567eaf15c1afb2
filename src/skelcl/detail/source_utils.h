// Helpers for handling user-supplied OpenCL-C function strings, and the
// combine redistribution that launches one (copy -> block).
#pragma once

#include <string>
#include <vector>

#include "ocl/ocl.h"

namespace skelcl::detail {

/// Extracts the name of the (first) function defined in `source` — the
/// identifier directly before the first top-level '('. SkelCL users pass
/// customizing functions as plain strings (paper Listing 1); the code
/// generator needs the name to call it from the skeleton kernel.
/// Throws common::InvalidArgument when no function definition is found.
std::string userFunctionName(const std::string& source);

/// Every function *defined* at the top level of `source`, in definition
/// order (the customizing function plus any helpers it carries along).
/// Throws common::InvalidArgument when the source does not lex.
std::vector<std::string> collectTopLevelFunctionNames(
    const std::string& source);

/// Returns `source` with every top-level-defined function (and every
/// call to it) renamed to `prefix` + its original name. Used by kernel
/// fusion to splice several customizing functions into one translation
/// unit without name capture: two stages may both define "func" or share
/// helper names. Whole-word textual replacement; member accesses
/// (`x.name`, `p->name`) are left alone.
std::string renameUserFunctions(const std::string& source,
                                const std::string& prefix);

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
                             const std::string& combineSource);

/// The concatenated OpenCL-side definitions of every registered user
/// struct type, prepended to all generated kernels.
std::string registeredTypeDefinitions();

} // namespace skelcl::detail
