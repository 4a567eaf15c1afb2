// MapReduce — a composed skeleton (extension beyond the IPDPS 2011
// paper; later SkelCL work added composed skeletons along these lines).
//
//   mapreduce f (+) [x0 .. xn-1]  =  f(x0) + f(x1) + ... + f(xn-1)
//
// A facade: Reduce over a deferred Map. The fusion pass's reduce . map
// rewrite (detail/fusion.h) splices f into the reduction's first pass,
// so the intermediate vector never exists — one launch and one global-
// memory pass instead of two — and the call is lazy like any other.
// tests/skelcl/map_reduce_test.cpp checks the semantics.
#pragma once

#include <string>

#include "skelcl/map.h"
#include "skelcl/reduce.h"

namespace skelcl {

template <typename Tin, typename Tout = Tin>
class MapReduce {
public:
  /// `mapSource` defines a unary function Tin -> Tout; `reduceSource` an
  /// associative binary operator on Tout. `identity` is the reduce
  /// operator's identity element, returned for an empty input (no
  /// launch happens then).
  MapReduce(const std::string& mapSource, const std::string& reduceSource,
            Tout identity = Tout{})
      : map_(mapSource), reduce_(reduceSource, identity) {}

  Scalar<Tout> operator()(const Vector<Tin>& input) {
    return reduce_(map_(input));
  }

private:
  Map<Tin, Tout> map_;
  Reduce<Tout> reduce_;
};

} // namespace skelcl
