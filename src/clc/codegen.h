// Bytecode generation from the analyzed AST.
#pragma once

#include <memory>
#include <string>

#include "clc/ast.h"
#include "clc/bytecode.h"

namespace clc {

/// Generates a Program from a fully analyzed translation unit.
Program generate(const TranslationUnit& unit);

/// Convenience entry point: lex + parse + analyze + generate + verify
/// (verify.h). The result is ready for the VM.
Program compile(const std::string& source);

} // namespace clc
