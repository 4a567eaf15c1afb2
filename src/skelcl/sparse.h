// Sparse containers and the SparseGather skeleton for irregular
// workloads. A CsrMatrix holds an immutable compressed-sparse-row
// matrix; SparseGather is a gather-apply-scatter primitive over it:
//
//   out[i] = fold combine identity
//              [ gather(values[k], x[colIdx[k]]) | k in row i ]
//
// With gather = multiply and combine = plus this is SpMV; with gather =
// "x[j] saturating-plus 1" and combine = min it expands a BFS frontier;
// a PageRank iteration is SpMV over pre-scaled values followed by a Map
// (see examples/). Both customizing functions are binary OpenCL-C
// functions; `identityExpr` is the fold's start value, e.g. "0.0f":
//
//   SparseGather<float> spmv(
//       "float g(float a, float xj) { return a * xj; }",
//       "float c(float a, float b) { return a + b; }", "0.0f");
//
// Rows are block-partitioned across the devices with the runtime's
// current block weights (SKELCL_WEIGHTS=measured shapes sparse chunks
// like dense ones); the dense operand is replicated, so a gather can
// touch any column without inter-device traffic. One work-item folds
// one row — empty rows yield the identity, duplicate column entries
// simply contribute once per entry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "skelcl/arguments.h"
#include "skelcl/detail/csr_state.h"
#include "skelcl/detail/expr.h"
#include "skelcl/detail/skeleton_common.h"
#include "skelcl/vector.h"
#include "trace/recorder.h"

namespace skelcl {

/// Typed device-side CSR state (see detail/csr_state.h for the chunk
/// geometry contract).
template <typename T>
class CsrState : public detail::CsrStateBase {
public:
  CsrState(std::size_t rows, std::size_t cols,
           std::vector<std::uint32_t> rowPtr,
           std::vector<std::uint32_t> colIdx, std::vector<T> values)
      : rows_(rows), cols_(cols), rowPtr_(std::move(rowPtr)),
        colIdx_(std::move(colIdx)), values_(std::move(values)) {}

  std::size_t rows() const override { return rows_; }
  std::size_t cols() const override { return cols_; }
  std::size_t nnz() const override { return colIdx_.size(); }
  std::string valueTypeName() const override { return typeName<T>(); }
  std::size_t valueSize() const override { return sizeof(T); }
  const std::vector<detail::CsrChunk>& chunks() const override {
    return chunks_;
  }

  void ensureOnDevices() override {
    if (!chunks_.empty()) {
      return;
    }
    auto& runtime = detail::Runtime::instance();
    runtime.requireInit();
    const std::vector<std::size_t> share = runtime.blockPartition(rows_);
    try {
      std::size_t row = 0;
      for (std::size_t d = 0; d < share.size(); ++d) {
        detail::CsrChunk chunk;
        chunk.deviceIndex = d;
        chunk.rowBegin = row;
        chunk.rowCount = share[d];
        chunk.nnzBegin = rowPtr_[row];
        chunk.nnzCount = rowPtr_[row + share[d]] - chunk.nnzBegin;
        row += share[d];

        const auto& device = runtime.devices()[d];
        auto& queue = runtime.queue(d);
        const std::size_t ptrBytes =
            (chunk.rowCount + 1) * sizeof(std::uint32_t);
        chunk.rowPtr = runtime.context().createBuffer(device, ptrBytes);
        chunk.colIdx = runtime.context().createBuffer(
            device, std::max<std::size_t>(
                        1, chunk.nnzCount * sizeof(std::uint32_t)));
        chunk.values = runtime.context().createBuffer(
            device,
            std::max<std::size_t>(1, chunk.nnzCount * sizeof(T)));
        // The three uploads chain on the H2D engine; the last event is
        // the chunk's single ready event.
        ocl::Event w = queue.enqueueWriteBuffer(
            chunk.rowPtr, 0, ptrBytes, rowPtr_.data() + chunk.rowBegin);
        if (chunk.nnzCount > 0) {
          w = queue.enqueueWriteBuffer(
              chunk.colIdx, 0, chunk.nnzCount * sizeof(std::uint32_t),
              colIdx_.data() + chunk.nnzBegin, {w});
          w = queue.enqueueWriteBuffer(
              chunk.values, 0, chunk.nnzCount * sizeof(T),
              values_.data() + chunk.nnzBegin, {w});
        }
        chunk.ready = std::move(w);
        chunks_.push_back(std::move(chunk));
      }
    } catch (ocl::ClError& e) {
      // Failure atomicity: drop every chunk so a later retry re-uploads
      // from the intact host arrays.
      chunks_.clear();
      e.prependContext("CSR upload of " + std::to_string(nnz()) +
                       " nonzero(s)");
      throw;
    }
  }

  const std::vector<std::uint32_t>& rowPtr() const { return rowPtr_; }
  const std::vector<std::uint32_t>& colIdx() const { return colIdx_; }
  const std::vector<T>& values() const { return values_; }

private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::uint32_t> rowPtr_;
  std::vector<std::uint32_t> colIdx_;
  std::vector<T> values_;
  std::vector<detail::CsrChunk> chunks_;
};

/// Immutable CSR matrix handle (cheap to copy — shared state). The
/// constructor validates the structure up front so device code can index
/// unchecked; duplicate columns within a row are legal.
template <typename T>
class CsrMatrix {
public:
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::uint32_t> rowPtr,
            std::vector<std::uint32_t> colIdx, std::vector<T> values) {
    if (rowPtr.size() != rows + 1) {
      throw common::InvalidArgument(
          "CsrMatrix rowPtr has " + std::to_string(rowPtr.size()) +
          " entries; want rows + 1 = " + std::to_string(rows + 1));
    }
    if (!rowPtr.empty() && rowPtr.front() != 0) {
      throw common::InvalidArgument("CsrMatrix rowPtr must start at 0");
    }
    for (std::size_t i = 0; i + 1 < rowPtr.size(); ++i) {
      if (rowPtr[i] > rowPtr[i + 1]) {
        throw common::InvalidArgument(
            "CsrMatrix rowPtr decreases at row " + std::to_string(i));
      }
    }
    if (rowPtr.back() != colIdx.size() || values.size() != colIdx.size()) {
      throw common::InvalidArgument(
          "CsrMatrix index/value arrays disagree: rowPtr ends at " +
          std::to_string(rowPtr.back()) + ", " +
          std::to_string(colIdx.size()) + " column(s), " +
          std::to_string(values.size()) + " value(s)");
    }
    for (std::uint32_t col : colIdx) {
      if (col >= cols) {
        throw common::InvalidArgument(
            "CsrMatrix column index " + std::to_string(col) +
            " out of range for " + std::to_string(cols) + " column(s)");
      }
    }
    // Kernels index rows/nonzeros with uint.
    if (rows > 0xFFFFFFFFull || cols > 0xFFFFFFFFull) {
      throw common::InvalidArgument("CsrMatrix dimensions exceed 2^32");
    }
    state_ = std::make_shared<CsrState<T>>(rows, cols, std::move(rowPtr),
                                           std::move(colIdx),
                                           std::move(values));
  }

  std::size_t rows() const { return state_->rows(); }
  std::size_t cols() const { return state_->cols(); }
  std::size_t nnz() const { return state_->nnz(); }

  CsrState<T>& state() const { return *state_; }
  const std::shared_ptr<CsrState<T>>& stateHandle() const { return state_; }

private:
  std::shared_ptr<CsrState<T>> state_;
};

template <typename T>
class SparseGather {
public:
  /// `gatherSource`: binary function (matrix value, gathered operand
  /// element); `combineSource`: associative binary fold; `identityExpr`:
  /// OpenCL-C expression for the fold's start value.
  SparseGather(const std::string& gatherSource,
               const std::string& combineSource, std::string identityExpr)
      : gather_(detail::Runtime::instance().userFunction(gatherSource)),
        combine_(detail::Runtime::instance().userFunction(combineSource)),
        identity_(std::move(identityExpr)) {}

  void setWorkGroupSize(std::size_t size) { workGroupSize_ = size; }

  Vector<T> operator()(const CsrMatrix<T>& matrix, const Vector<T>& x,
                       const Arguments& args = Arguments{}) {
    trace::ScopedHostSpan span(trace::HostKind::Skeleton, "SparseGather",
                               trace::kNoDevice, matrix.nnz());
    detail::Runtime::instance().requireInit();
    if (x.size() != matrix.cols()) {
      throw common::InvalidArgument(
          "SparseGather operand has " + std::to_string(x.size()) +
          " element(s); matrix has " + std::to_string(matrix.cols()) +
          " column(s)");
    }
    // Upload eagerly: faults surface at the call site, and the row
    // partition is fixed before any deferred evaluation observes it.
    matrix.state().ensureOnDevices();

    auto node = detail::makeExprNode(
        detail::ExprNode::Op::SparseGather, gather_, args, workGroupSize_,
        {x.stateHandle()}, typeName<T>(), sizeof(T), matrix.rows(),
        identity_);
    auto params = std::make_shared<detail::SparseParams>();
    params->csr = matrix.stateHandle();
    params->combine = combine_;
    node->sparse = std::move(params);

    Vector<T> output;
    if (detail::deferrable(args)) {
      detail::deferNode(node, output.stateHandle());
    } else {
      detail::evaluateNodeInto(node, output.stateHandle());
    }
    return output;
  }

private:
  std::shared_ptr<const detail::UserFunction> gather_;
  std::shared_ptr<const detail::UserFunction> combine_;
  std::string identity_;
  std::size_t workGroupSize_ = 0;
};

} // namespace skelcl
