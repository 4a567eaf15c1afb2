// Skeleton correctness on a single device: Map, Zip, Reduce, Scan,
// composition, and the additional-arguments mechanism.
#include <cmath>
#include <numeric>

#include "common/prng.h"
#include "skelcl_test_util.h"

namespace {

using skelcl::Arguments;
using skelcl::Map;
using skelcl::Reduce;
using skelcl::Scalar;
using skelcl::Scan;
using skelcl::Vector;
using skelcl::Zip;
using skelcl_test::SkelclFixture;

class SkeletonTest : public SkelclFixture {
protected:
  SkeletonTest() : SkelclFixture(1) {}
};

TEST_F(SkeletonTest, MapAppliesUnaryFunction) {
  Map<float> dbl("float dbl(float x) { return 2.0f * x; }");
  std::vector<float> in(100);
  std::iota(in.begin(), in.end(), 0.0f);
  Vector<float> input(in);
  Vector<float> output = dbl(input);
  ASSERT_EQ(output.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(output[i], 2.0f * in[i]) << i;
  }
}

TEST_F(SkeletonTest, MapWithDifferentOutputType) {
  Map<float, int> toInt("int f(float x) { return (int)(x + 0.5f); }");
  Vector<float> input(std::vector<float>{0.2f, 1.7f, 2.4f});
  Vector<int> output = toInt(input);
  EXPECT_EQ(output[0], 0);
  EXPECT_EQ(output[1], 2);
  EXPECT_EQ(output[2], 2);
}

TEST_F(SkeletonTest, MapUsesOpenClBuiltins) {
  Map<float> f("float f(float x) { return sqrt(x) + sin(0.0f); }");
  Vector<float> input(std::vector<float>{4.0f, 9.0f, 16.0f});
  Vector<float> output = f(input);
  EXPECT_FLOAT_EQ(output[0], 2.0f);
  EXPECT_FLOAT_EQ(output[1], 3.0f);
  EXPECT_FLOAT_EQ(output[2], 4.0f);
}

TEST_F(SkeletonTest, ZipCombinesElementwise) {
  Zip<int> add("int add(int a, int b) { return a + b; }");
  Vector<int> a(std::vector<int>{1, 2, 3});
  Vector<int> b(std::vector<int>{10, 20, 30});
  Vector<int> c = add(a, b);
  EXPECT_EQ(c[0], 11);
  EXPECT_EQ(c[1], 22);
  EXPECT_EQ(c[2], 33);
}

TEST_F(SkeletonTest, ZipSizeMismatchThrows) {
  Zip<int> add("int add(int a, int b) { return a + b; }");
  Vector<int> a(3, 0), b(4, 0);
  EXPECT_THROW(add(a, b), common::InvalidArgument);
}

TEST_F(SkeletonTest, ZipWithAliasedOutput) {
  // The OSEM update pattern: update(f, c, f).
  Zip<float> update(
      "float up(float f, float c) { return c > 0.0f ? f * c : f; }");
  Vector<float> f(std::vector<float>{1.0f, 2.0f, 3.0f});
  Vector<float> c(std::vector<float>{2.0f, 0.0f, 4.0f});
  update(f, c, f);
  EXPECT_FLOAT_EQ(f[0], 2.0f);
  EXPECT_FLOAT_EQ(f[1], 2.0f);
  EXPECT_FLOAT_EQ(f[2], 12.0f);
}

TEST_F(SkeletonTest, ReduceSumsAllElements) {
  Reduce<int> sum("int sum(int a, int b) { return a + b; }");
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 1);
  Vector<int> input(data);
  Scalar<int> result = sum(input);
  EXPECT_EQ(result.getValue(), 500500);
}

TEST_F(SkeletonTest, ReduceSingleElement) {
  Reduce<float> sum("float f(float a, float b) { return a + b; }");
  Vector<float> one(std::vector<float>{42.0f});
  EXPECT_FLOAT_EQ(sum(one).getValue(), 42.0f);
}

TEST_F(SkeletonTest, ReduceEmptyReturnsIdentity) {
  Reduce<float> sum("float f(float a, float b) { return a + b; }");
  Vector<float> empty;
  EXPECT_EQ(sum(empty).getValue(), 0.0f);

  Reduce<float> product("float f(float a, float b) { return a * b; }",
                        1.0f);
  EXPECT_EQ(product(empty).getValue(), 1.0f);
}

TEST_F(SkeletonTest, ReduceNonCommutativeAssociativeOperator) {
  // Right projection is associative but not commutative: the reduction
  // must produce exactly the last element.
  Reduce<int> last("int pick(int a, int b) { return b; }");
  std::vector<int> data(70000);
  std::iota(data.begin(), data.end(), 0);
  Vector<int> input(data);
  EXPECT_EQ(last(input).getValue(), 69999);
}

TEST_F(SkeletonTest, ReduceMax) {
  Reduce<float> maxOp("float m(float a, float b) { return fmax(a, b); }");
  std::vector<float> data = {3.5f, -1.0f, 99.25f, 12.0f, 98.0f};
  Vector<float> input(data);
  EXPECT_FLOAT_EQ(maxOp(input).getValue(), 99.25f);
}

TEST_F(SkeletonTest, DotProductComposition) {
  // Paper Listing 1 exactly: Scalar = sum(mult(A, B)).
  Reduce<float> sum("float sum (float x,float y){return x+y;}");
  Zip<float> mult("float mult(float x,float y){return x*y;}");
  const std::size_t n = 1024;
  std::vector<float> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = float(i % 10);
    b[i] = float((i + 1) % 7);
  }
  Vector<float> A(a.data(), n);
  Vector<float> B(b.data(), n);
  Scalar<float> C = sum(mult(A, B));
  float expected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expected += a[i] * b[i];
  }
  EXPECT_FLOAT_EQ(C.getValue(), expected);
}

TEST_F(SkeletonTest, ScanExclusiveSum) {
  Scan<int> scan("int add(int a, int b) { return a + b; }", "0");
  std::vector<int> data(1000, 1);
  Vector<int> input(data);
  Vector<int> output = scan(input);
  ASSERT_EQ(output.size(), 1000u);
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(output[i], int(i)) << i; // exclusive prefix count
  }
}

TEST_F(SkeletonTest, ScanMatchesStdExclusiveScan) {
  Scan<int> scan("int add(int a, int b) { return a + b; }", "0");
  common::Xoshiro256 rng(11);
  std::vector<int> data(5000);
  for (auto& v : data) {
    v = int(rng.nextBelow(100)) - 50;
  }
  Vector<int> input(data);
  Vector<int> output = scan(input);
  std::vector<int> expected(data.size());
  std::exclusive_scan(data.begin(), data.end(), expected.begin(), 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(output[i], expected[i]) << i;
  }
}

TEST_F(SkeletonTest, ScanWithMultiplicationIdentity) {
  Scan<float> scan("float mul(float a, float b) { return a * b; }", "1.0f");
  Vector<float> input(std::vector<float>{2.0f, 3.0f, 4.0f});
  Vector<float> output = scan(input);
  EXPECT_FLOAT_EQ(output[0], 1.0f);
  EXPECT_FLOAT_EQ(output[1], 2.0f);
  EXPECT_FLOAT_EQ(output[2], 6.0f);
}

TEST_F(SkeletonTest, ScanSingleBlockAndExactBlockBoundary) {
  Scan<int> scan("int add(int a, int b) { return a + b; }", "0");
  for (const std::size_t n : {1u, 7u, 255u, 256u, 257u, 512u}) {
    std::vector<int> data(n, 2);
    Vector<int> input(data);
    Vector<int> output = scan(input);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(output[i], int(2 * i)) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(SkeletonTest, MapWithAdditionalScalarArgument) {
  // Paper Listing 2: the Map function takes an extra argument.
  Map<float> multNum(
      "float f(float input, float number) { return input * number; }");
  Vector<float> input(std::vector<float>{1.0f, 2.0f, 3.0f});
  Arguments args;
  args.push(5.0f);
  Vector<float> output = multNum(input, args);
  EXPECT_FLOAT_EQ(output[0], 5.0f);
  EXPECT_FLOAT_EQ(output[1], 10.0f);
  EXPECT_FLOAT_EQ(output[2], 15.0f);
}

TEST_F(SkeletonTest, MapWithVectorArgument) {
  Map<int> gather(
      "int g(int idx, __global int* table) { return table[idx]; }");
  Vector<int> indices(std::vector<int>{2, 0, 1});
  Vector<int> table(std::vector<int>{10, 20, 30});
  Arguments args;
  args.push(table);
  Vector<int> output = gather(indices, args);
  EXPECT_EQ(output[0], 30);
  EXPECT_EQ(output[1], 10);
  EXPECT_EQ(output[2], 20);
}

TEST_F(SkeletonTest, MapWithVectorSizeArgument) {
  Map<int> f(
      "int f(int idx, __global int* data, uint n) {"
      "  int acc = 0;"
      "  for (uint k = 0; k < n; ++k) acc += data[k];"
      "  return acc + idx;"
      "}");
  Vector<int> indices(std::vector<int>{0, 1});
  Vector<int> data(std::vector<int>{5, 6, 7});
  Arguments args;
  args.push(data);
  args.pushSizeOf(data);
  Vector<int> output = f(indices, args);
  EXPECT_EQ(output[0], 18);
  EXPECT_EQ(output[1], 19);
}

TEST_F(SkeletonTest, VoidMapWithSideEffects) {
  // A Map<..., void> updates a vector argument in place and the host
  // must flag the modification (paper Sec. IV-B).
  Map<int, void> scatter(
      "void s(int idx, __global int* out) { out[idx] = idx * idx; }");
  Vector<int> indices = skelcl::indexVector(8);
  Vector<int> out(8, 0);
  Arguments args;
  args.push(out);
  scatter(indices, args);
  out.dataOnDevicesModified();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i], int(i * i)) << i;
  }
}

TEST_F(SkeletonTest, ArgumentsWithStructType) {
  struct Params {
    float scale;
    float offset;
  };
  skelcl::registerType<Params>(
      "Params", "typedef struct { float scale; float offset; } Params;");
  Map<float> affine(
      "float f(float x, Params p) { return x * p.scale + p.offset; }");
  Vector<float> input(std::vector<float>{1.0f, 2.0f});
  Arguments args;
  args.push(Params{3.0f, 0.5f});
  Vector<float> output = affine(input, args);
  EXPECT_FLOAT_EQ(output[0], 3.5f);
  EXPECT_FLOAT_EQ(output[1], 6.5f);
}

TEST_F(SkeletonTest, StructElementVectors) {
  struct Complex {
    float re, im;
  };
  skelcl::registerType<Complex>(
      "ComplexT", "typedef struct { float re; float im; } ComplexT;");
  Map<Complex, float> magnitude(
      "float mag(ComplexT z) { return sqrt(z.re * z.re + z.im * z.im); }");
  Vector<Complex> input(std::vector<Complex>{{3.0f, 4.0f}, {5.0f, 12.0f}});
  Vector<float> output = magnitude(input);
  EXPECT_FLOAT_EQ(output[0], 5.0f);
  EXPECT_FLOAT_EQ(output[1], 13.0f);
}

TEST_F(SkeletonTest, ChainedSkeletonsStayOnDevice) {
  // Paper Sec. III-A: "if an output vector is used as the input to
  // another skeleton, no further data transfer is performed."
  Map<float> inc("float inc(float x) { return x + 1.0f; }");
  Vector<float> input(std::vector<float>(1 << 16, 0.0f));
  Vector<float> a = inc(input);
  const auto host1 = ocl::hostTimeNs();
  Vector<float> b = inc(a); // chained: must not download/upload `a`
  Vector<float> c = inc(b);
  // Between chained calls only enqueue overhead passes on the host; a
  // download of 256 KiB would cost ~50 us of virtual time.
  const auto elapsed = ocl::hostTimeNs() - host1;
  EXPECT_LT(elapsed, 20'000u) << "chaining seems to transfer data";
  EXPECT_FLOAT_EQ(c[100], 3.0f);
}

TEST_F(SkeletonTest, InvalidUserFunctionFailsAtFirstUse) {
  Map<float> broken("float f(float x) { return undefined_var; }");
  Vector<float> input(std::vector<float>{1.0f});
  // Invocation is lazy; the build happens when the result is read.
  EXPECT_THROW(broken(input)[0], ocl::BuildError);
}

TEST_F(SkeletonTest, UserFunctionNameExtraction) {
  using skelcl::detail::UserFunction;
  EXPECT_EQ(UserFunction("float sum (float x,float y){return x+y;}").name(),
            "sum");
  EXPECT_EQ(UserFunction("int f(int a) { return g(a); }").name(), "f");
  EXPECT_THROW(UserFunction("int x = 3;"), common::InvalidArgument);
}

TEST_F(SkeletonTest, UserFunctionRenamesHelperAndCustomizingFunction) {
  const skelcl::detail::UserFunction fn(
      "float h(float x) { return x + 1.0f; }\n"
      "float f(float x) { return h(x) * h(2.0f * x); }");
  EXPECT_EQ(fn.name(), "f");
  EXPECT_EQ(fn.renamed("P_"),
            "float P_h(float x) { return x + 1.0f; }\n"
            "float P_f(float x) { return P_h(x) * P_h(2.0f * x); }");
  EXPECT_EQ(fn.renamed(""), fn.source());
}

TEST_F(SkeletonTest, UserFunctionRenamesWholeWordsOnly) {
  // `f` is a prefix of the helper `ff` and of the parameter `fx`, and a
  // suffix of `gf`; only whole-word uses of each defined name move.
  const skelcl::detail::UserFunction fn(
      "int ff(int fx) { return fx + 1; }\n"
      "int f(int gf) { return ff(gf) + ff(f_x(gf)); }");
  EXPECT_EQ(fn.name(), "f");
  EXPECT_EQ(fn.renamed("P_"),
            "int P_ff(int fx) { return fx + 1; }\n"
            "int P_f(int gf) { return P_ff(gf) + P_ff(f_x(gf)); }");
}

TEST_F(SkeletonTest, UserFunctionLeavesStructFieldsAndCommentsAlone) {
  // Fields named like the functions, declared in a struct and read
  // through `.` and `->`, are not uses of the functions; nor is a name in
  // a comment. A call in a #define body continued over a backslash-
  // newline is a use, and so is every one after it.
  const skelcl::detail::UserFunction fn(
      "typedef struct { float scale; float g; } P;\n"
      "float g(float x) { return 2.0f * x; } // g doubles\n"
      "#define TWICE(x) \\\n  g(g(x))\n"
      "/* g */ float scale(P p, const P* q) {\n"
      "  return g(p.g) + q->g + p . scale + TWICE(q -> scale);\n"
      "}");
  EXPECT_EQ(fn.name(), "scale");
  EXPECT_EQ(fn.renamed("P_"),
            "typedef struct { float scale; float g; } P;\n"
            "float P_g(float x) { return 2.0f * x; } // g doubles\n"
            "#define TWICE(x) \\\n  P_g(P_g(x))\n"
            "/* g */ float P_scale(P p, const P* q) {\n"
            "  return P_g(p.g) + q->g + p . scale + TWICE(q -> scale);\n"
            "}");
}

TEST_F(SkeletonTest, SkeletonsShareOneUserFunctionPerInitCycle) {
  const std::string source = "float f(float x) { return x + 1.0f; }";
  auto& runtime = skelcl::detail::Runtime::instance();
  Map<float> a(source);
  Map<float> b(source);
  const auto first = runtime.userFunction(source);
  // One lexed value, held by the runtime's table, both skeletons and
  // `first`.
  EXPECT_EQ(first.use_count(), 4);
  EXPECT_EQ(runtime.userFunction(source), first);

  skelcl::terminate();
  skelcl::init(skelcl::DeviceSelection::nGPUs(1));
  Map<float> c(source);
  const auto second = runtime.userFunction(source);
  EXPECT_NE(second, first);
  EXPECT_EQ(second.use_count(), 3); // the table, c and `second`
  EXPECT_EQ(first.use_count(), 3);  // a, b and `first`; no table
  // Skeletons from both cycles still run.
  Vector<float> input(std::vector<float>{1.0f});
  EXPECT_FLOAT_EQ(a(input)[0], 2.0f);
  EXPECT_FLOAT_EQ(c(input)[0], 2.0f);
}

TEST_F(SkeletonTest, MapRespectsCustomWorkGroupSize) {
  Map<int> f("int f(int x) { return x + 1; }");
  f.setWorkGroupSize(64);
  Vector<int> input(std::vector<int>(1000, 5));
  Vector<int> output = f(input);
  EXPECT_EQ(output[999], 6);
}

} // namespace
