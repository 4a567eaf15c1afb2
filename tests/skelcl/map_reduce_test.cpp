// MapReduce fused skeleton (extension; DESIGN.md §7).
#include <numeric>

#include "common/prng.h"
#include "skelcl_test_util.h"
#include "trace/recorder.h"

namespace {

using skelcl::MapReduce;
using skelcl::Vector;
using skelcl_test::SkelclFixture;

class MapReduceTest : public SkelclFixture {
protected:
  MapReduceTest() : SkelclFixture(1) {}

  void TearDown() override {
    ocl::FaultInjector::instance().reset();
    SkelclFixture::TearDown();
  }
};

TEST_F(MapReduceTest, SumOfSquares) {
  MapReduce<float> sumSquares("float sq(float x) { return x * x; }",
                              "float add(float a, float b) { return a + b; }");
  std::vector<float> data(1000);
  std::iota(data.begin(), data.end(), 1.0f);
  Vector<float> input(data);
  double expected = 0;
  for (const float v : data) {
    expected += double(v) * double(v);
  }
  EXPECT_NEAR(double(sumSquares(input).getValue()), expected,
              expected * 1e-5);
}

TEST_F(MapReduceTest, TypeChangingMapReduce) {
  // Count elements above a threshold: Tin=float, Tout=int.
  MapReduce<float, int> countAbove(
      "int above(float x) { return x > 0.5f ? 1 : 0; }",
      "int add(int a, int b) { return a + b; }");
  common::Xoshiro256 rng(3);
  std::vector<float> data(5000);
  int expected = 0;
  for (auto& v : data) {
    v = rng.nextFloat();
    expected += v > 0.5f ? 1 : 0;
  }
  Vector<float> input(data);
  EXPECT_EQ(countAbove(input).getValue(), expected);
}

TEST_F(MapReduceTest, MatchesUnfusedComposition) {
  skelcl::Map<float> square("float sq(float x) { return x * x; }");
  skelcl::Reduce<float> sum("float a(float x, float y) { return x + y; }");
  MapReduce<float> fused("float sq(float x) { return x * x; }",
                         "float a(float x, float y) { return x + y; }");
  common::Xoshiro256 rng(7);
  std::vector<float> data(4097);
  for (auto& v : data) {
    v = float(rng.nextBelow(8));
  }
  Vector<float> a(data), b(data);
  EXPECT_FLOAT_EQ(fused(a).getValue(), sum(square(b)).getValue());
}

TEST_F(MapReduceTest, SingleElement) {
  MapReduce<int> mr("int m(int x) { return x + 10; }",
                    "int r(int a, int b) { return a + b; }");
  Vector<int> one(std::vector<int>{5});
  EXPECT_EQ(mr(one).getValue(), 15);
}

TEST_F(MapReduceTest, EmptyReturnsIdentity) {
  MapReduce<int> mr("int m(int x) { return x; }",
                    "int r(int a, int b) { return a + b; }");
  Vector<int> empty;
  EXPECT_EQ(mr(empty).getValue(), 0);

  MapReduce<int> product("int m(int x) { return x; }",
                         "int r(int a, int b) { return a * b; }", 1);
  EXPECT_EQ(product(empty).getValue(), 1);
}

TEST_F(MapReduceTest, EnqueuesNothingUntilGetValue) {
  // The call only builds DAG nodes; the fused launch waits for the read.
  MapReduce<int> sumSq("int sq_lz(int x) { return x * x; }",
                       "int add_lz(int a, int b) { return a + b; }");
  std::vector<int> data(1024); // the sum of squares still fits an int
  std::iota(data.begin(), data.end(), 0);
  Vector<int> input(data);
  input.state().ensureOnDevices(); // the upload is not the call's work

  trace::Recorder::instance().start();
  skelcl::Scalar<int> result = sumSq(input);
  const trace::Trace atCall = trace::Recorder::instance().stop();
  EXPECT_TRUE(atCall.commands.empty())
      << atCall.commands.size() << " device command(s) before getValue()";

  trace::Recorder::instance().start();
  int expected = 0;
  for (const int v : data) {
    expected += v * v;
  }
  EXPECT_EQ(result.getValue(), expected);
  const trace::Trace atRead = trace::Recorder::instance().stop();
  std::size_t kernels = 0;
  for (const trace::CommandRecord& command : atRead.commands) {
    kernels += command.kind == trace::CommandKind::Kernel ? 1 : 0;
  }
  EXPECT_GT(kernels, 0u);
}

TEST_F(MapReduceTest, KernelFaultSurfacesTypedAtGetValue) {
  MapReduce<int> sumSq("int sq_kf(int x) { return x * x; }",
                       "int add_kf(int a, int b) { return a + b; }");
  std::vector<int> data(2048);
  std::iota(data.begin(), data.end(), 0);
  Vector<int> input(data);

  ocl::FaultInjector::instance().configure("kernel@1");
  skelcl::Scalar<int> result = sumSq(input); // lazy: nothing launched yet
  try {
    (void)result.getValue();
    FAIL() << "expected a typed ClError at getValue()";
  } catch (const ocl::ClError& e) {
    EXPECT_NE(std::string(e.what()).find("skeleton on device 0"),
              std::string::npos)
        << e.what();
  }
  ocl::FaultInjector::instance().reset();
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(input[i], data[i]) << i;
  }
}

class MapReduceMultiDevice
    : public SkelclFixture,
      public ::testing::WithParamInterface<std::uint32_t> {
public:
  MapReduceMultiDevice() : SkelclFixture(GetParam()) {}
};

TEST_P(MapReduceMultiDevice, BlockDistributedSumOfSquares) {
  MapReduce<long long> sumSq("long sq(long x) { return x * x; }",
                             "long add(long a, long b) { return a + b; }");
  std::vector<long long> data(30000);
  std::iota(data.begin(), data.end(), 0LL);
  Vector<long long> input(data);
  input.setDistribution(skelcl::Distribution::Block);
  long long expected = 0;
  for (const long long v : data) {
    expected += v * v;
  }
  EXPECT_EQ(sumSq(input).getValue(), expected);
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MapReduceMultiDevice,
                         ::testing::Values(1u, 2u, 4u),
                         [](const auto& info) {
                           return std::to_string(info.param) + "gpu";
                         });

} // namespace
