// Per-layer micro-cases of the traced run.
#pragma once

#include <string>

#include "harness.h"

namespace perfbench {

/// Runs every per-layer micro-case (clc phases over the repository's
/// kernel corpus, serialization, the VM, kernel enqueue, transfers,
/// skeleton call / force / drain, the kernel cache and a service pump)
/// and records its metrics. `root` is the repository checkout. Leaves
/// SkelCL terminated.
void runLayerCases(const std::string& root, Ledger& ledger);

/// Calls each clc entry point wrap.cpp wraps once, with spans recorded,
/// and checks that each recorded its span: a wrap that no longer matches
/// its symbol fails the run. Defined in wrap.cpp.
void checkWrappedSpans(Ledger& ledger);

} // namespace perfbench
