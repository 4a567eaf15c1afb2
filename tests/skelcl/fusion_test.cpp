// Differential tests for the expression-DAG rewrite pass: every
// scenario runs once with fusion enabled and once under SKELCL_FUSION=0
// (each in its own init()..terminate() cycle) and must produce
// bit-identical outputs. Fusion may only change HOW the DAG executes —
// fewer kernel launches, fewer materialized intermediates — never WHAT
// it computes: a fused chain applies the same operations to the same
// elements in the same order as the unfused stages.
#include <cstring>
#include <functional>
#include <numeric>

#include "skelcl_test_util.h"

namespace {

using skelcl::Arguments;
using skelcl::Distribution;
using skelcl::Map;
using skelcl::Reduce;
using skelcl::Scan;
using skelcl::Vector;
using skelcl::Zip;

/// Everything disabling fusion may NOT change (outputs) plus what it
/// MUST change (launch counts, materialized intermediates).
struct RunResult {
  std::vector<float> floats;
  std::vector<int> ints;
  std::uint64_t kernelLaunches = 0; // sum over all device queues
  skelcl::detail::Runtime::FusionStats stats;
};

/// Runs `scenario` in a fresh init()..terminate() cycle on `gpus`
/// simulated GPUs with fusion on or off.
RunResult runScenario(const std::function<void(RunResult&)>& scenario,
                      std::uint32_t gpus, bool fused) {
  skelcl_test::useTempCacheDir();
  ::setenv("SKELCL_FUSION", fused ? "1" : "0", 1);
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
  skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));

  RunResult result;
  scenario(result);

  auto& runtime = skelcl::detail::Runtime::instance();
  for (std::size_t d = 0; d < skelcl::deviceCount(); ++d) {
    result.kernelLaunches += runtime.queue(d).cumulativeKernelLaunches();
  }
  result.stats = runtime.fusionStats();
  skelcl::terminate();
  ::unsetenv("SKELCL_FUSION");
  return result;
}

/// Bit-level equality: fusion must not reassociate float arithmetic.
bool bitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

std::vector<float> testData(std::size_t n) {
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = float(i % 97) * 0.375f - 11.5f;
  }
  return data;
}

/// Runs the scenario both ways and checks the differential contract:
/// identical outputs, strictly fewer launches fused, and rewrite stats
/// that show the pass actually fired.
void expectFusionWins(const std::function<void(RunResult&)>& scenario,
                      std::uint32_t gpus = 1) {
  const RunResult fused = runScenario(scenario, gpus, /*fused=*/true);
  const RunResult unfused = runScenario(scenario, gpus, /*fused=*/false);

  EXPECT_TRUE(bitIdentical(fused.floats, unfused.floats));
  EXPECT_EQ(fused.ints, unfused.ints);
  EXPECT_LT(fused.kernelLaunches, unfused.kernelLaunches);
  EXPECT_GT(fused.stats.fusedStages, 0u);
  EXPECT_EQ(unfused.stats.fusedStages, 0u);
  EXPECT_LT(fused.stats.intermediateBytes,
            unfused.stats.intermediateBytes);
}

TEST(FusionTest, MapMapComposesIntoOneKernel) {
  auto scenario = [](RunResult& out) {
    Map<float> scale("float fu_scale(float x) { return 2.0f * x; }");
    Map<float> shift("float fu_shift(float x) { return x + 3.0f; }");
    Vector<float> input(testData(4096));
    Vector<float> result = shift(scale(input));
    out.floats = result.hostData();
  };
  const RunResult fused = runScenario(scenario, 1, /*fused=*/true);
  const RunResult unfused = runScenario(scenario, 1, /*fused=*/false);
  EXPECT_TRUE(bitIdentical(fused.floats, unfused.floats));
  // map f . map g -> one kernel; unfused runs one per stage.
  EXPECT_EQ(fused.kernelLaunches, 1u);
  EXPECT_EQ(unfused.kernelLaunches, 2u);
  EXPECT_EQ(fused.stats.intermediateBytes, 0u);
  EXPECT_EQ(unfused.stats.intermediateBytes, 4096 * sizeof(float));
}

TEST(FusionTest, ZipAbsorbsMapOperands) {
  expectFusionWins([](RunResult& out) {
    Map<float> inc("float fu_inc(float x) { return x + 1.0f; }");
    Map<float> dbl("float fu_dbl(float x) { return 2.0f * x; }");
    Zip<float> mul("float fu_mul(float x, float y) { return x * y; }");
    Vector<float> a(testData(2048));
    Vector<float> b(testData(2048));
    Vector<float> result = mul(inc(a), dbl(b));
    out.floats = result.hostData();
  });
}

TEST(FusionTest, ReduceAbsorbsMapIntoMapReduce) {
  expectFusionWins([](RunResult& out) {
    Map<float> square("float fu_sq(float x) { return x * x; }");
    Reduce<float> sum("float fu_sum(float a, float b) { return a + b; }");
    Vector<float> input(testData(10000));
    out.floats.push_back(sum(square(input)).getValue());
  });
}

TEST(FusionTest, MapReduceFacadeAbsorbsDeferredProducer) {
  // mr(inc(x)) must plan exactly like the explicit sum(sq(inc(x))).
  auto facade = [](RunResult& out) {
    Map<float> inc("float fu_inc(float x) { return x + 1.0f; }");
    skelcl::MapReduce<float> sumSq(
        "float fu_sq(float x) { return x * x; }",
        "float fu_sum(float a, float b) { return a + b; }");
    Vector<float> input(testData(10000));
    out.floats.push_back(sumSq(inc(input)).getValue());
  };
  auto composed = [](RunResult& out) {
    Map<float> inc("float fu_inc(float x) { return x + 1.0f; }");
    Map<float> square("float fu_sq(float x) { return x * x; }");
    Reduce<float> sum("float fu_sum(float a, float b) { return a + b; }");
    Vector<float> input(testData(10000));
    out.floats.push_back(sum(square(inc(input))).getValue());
  };
  const RunResult fused = runScenario(facade, 1, /*fused=*/true);
  const RunResult unfused = runScenario(facade, 1, /*fused=*/false);
  const RunResult reference = runScenario(composed, 1, /*fused=*/true);
  EXPECT_TRUE(bitIdentical(fused.floats, unfused.floats));
  EXPECT_TRUE(bitIdentical(fused.floats, reference.floats));
  EXPECT_EQ(fused.kernelLaunches, reference.kernelLaunches);
  EXPECT_EQ(fused.stats.fusedStages, 2u);
  EXPECT_EQ(fused.stats.intermediateBytes, 0u);
}

TEST(FusionTest, SideEffectMapAbsorbsDeferredProducer) {
  // Map<int, void> runs eagerly, but through the DAG: the deferred
  // producer of its input splices into the one side-effect kernel.
  auto scenario = [](RunResult& out) {
    Map<int> perm("int fu_perm(int x) { return (x * 7) % 4096; }");
    Map<int, void> place(
        "void fu_place(int v, __global int* seen) {"
        " seen[(v * 5) % 4096] = v; }");
    std::vector<int> data(4096);
    std::iota(data.begin(), data.end(), 0);
    Vector<int> input(data);
    Vector<int> seen(4096, -1);
    Arguments args;
    args.push(seen);
    place(perm(input), args);
    seen.dataOnDevicesModified();
    out.ints = seen.hostData();
  };
  const RunResult fused = runScenario(scenario, 1, /*fused=*/true);
  const RunResult unfused = runScenario(scenario, 1, /*fused=*/false);
  EXPECT_EQ(fused.ints, unfused.ints);
  EXPECT_EQ(fused.kernelLaunches, 1u);
  EXPECT_EQ(unfused.kernelLaunches, 2u);
  EXPECT_EQ(fused.stats.intermediateBytes, 0u);
  EXPECT_EQ(unfused.stats.intermediateBytes, 4096 * sizeof(int));
}

TEST(FusionTest, DotProductChainFusesToTwoLaunches) {
  auto scenario = [](RunResult& out) {
    Zip<float> mul("float fu_mul(float x, float y) { return x * y; }");
    Reduce<float> sum("float fu_sum(float a, float b) { return a + b; }");
    Vector<float> a(testData(8192));
    Vector<float> b(testData(8192));
    out.floats.push_back(sum(mul(a, b)).getValue());
  };
  const RunResult fused = runScenario(scenario, 1, /*fused=*/true);
  const RunResult unfused = runScenario(scenario, 1, /*fused=*/false);
  EXPECT_TRUE(bitIdentical(fused.floats, unfused.floats));
  // Fused: one mapreduce first pass + one combine pass. Unfused: the
  // zip kernel, then the same two reduce passes.
  EXPECT_EQ(fused.kernelLaunches + 1, unfused.kernelLaunches);
  EXPECT_EQ(fused.stats.intermediateBytes, 0u);
  EXPECT_EQ(unfused.stats.intermediateBytes, 8192 * sizeof(float));
}

TEST(FusionTest, ScanAbsorbsMapChain) {
  expectFusionWins([](RunResult& out) {
    Map<int> offset("int fu_off(int x) { return x - 7; }");
    Scan<int> prefix("int fu_add(int a, int b) { return a + b; }", "0");
    std::vector<int> data(3000);
    std::iota(data.begin(), data.end(), 1);
    Vector<int> input(data);
    out.ints = prefix(offset(input)).hostData();
  });
}

TEST(FusionTest, StagesDefiningTheSameNamesStayApart) {
  // Both stages define a customizing function `f` and a helper `h`. The
  // fused kernel holds both pairs, each renamed with its stage's prefix,
  // so neither stage's calls can reach the other's functions.
  expectFusionWins([](RunResult& out) {
    Map<float> first(
        "float h(float x) { return x + 1.0f; }\n"
        "float f(float x) { return 2.0f * h(x); }");
    Map<float> second(
        "float h(float x) { return x * x; }\n"
        "float f(float x) { return h(x) - 3.0f; }");
    Vector<float> input(testData(2048));
    out.floats = second(first(input)).hostData();
  });
}

TEST(FusionTest, DeepChainSplitsAtMaxDepthAndStaysExact) {
  // 24 stacked maps exceed the rewrite pass's max fusion depth, so the
  // plan must split: still bit-exact, still far fewer launches.
  expectFusionWins([](RunResult& out) {
    Map<float> step("float fu_step(float x) { return x * 1.5f - 2.0f; }");
    Vector<float> v(testData(1024));
    for (int i = 0; i < 24; ++i) {
      v = step(v);
    }
    out.floats = v.hostData();
  });
}

TEST(FusionTest, FanoutBlocksAbsorptionButKeepsResultsExact) {
  // `shared` feeds two consumers, so it must materialize exactly once;
  // both consumers then read the same buffer.
  auto scenario = [](RunResult& out) {
    Map<float> inc("float fu_inc(float x) { return x + 1.0f; }");
    Map<float> dbl("float fu_dbl(float x) { return 2.0f * x; }");
    Zip<float> add("float fu_add(float x, float y) { return x + y; }");
    Vector<float> input(testData(512));
    Vector<float> shared = inc(input);
    Vector<float> result = add(dbl(shared), shared);
    out.floats = result.hostData();
  };
  const RunResult fused = runScenario(scenario, 1, /*fused=*/true);
  const RunResult unfused = runScenario(scenario, 1, /*fused=*/false);
  EXPECT_TRUE(bitIdentical(fused.floats, unfused.floats));
  // Fused: `shared` materializes, then zip absorbs only dbl -> 2
  // launches; unfused runs all 3 stages.
  EXPECT_EQ(fused.kernelLaunches, 2u);
  EXPECT_EQ(unfused.kernelLaunches, 3u);
}

TEST(FusionTest, MultiDeviceChainsStayExact) {
  expectFusionWins(
      [](RunResult& out) {
        Map<float> inc("float fu_inc(float x) { return x + 0.5f; }");
        Zip<float> mul("float fu_mul(float x, float y) { return x * y; }");
        Reduce<float> sum(
            "float fu_sum(float a, float b) { return a + b; }");
        Vector<float> a(testData(9999));
        Vector<float> b(testData(9999));
        a.setDistribution(Distribution::Block);
        b.setDistribution(Distribution::Block);
        Vector<float> c = mul(inc(a), b);
        out.floats = c.hostData();
        out.floats.push_back(sum(c).getValue());
      },
      /*gpus=*/3);
}

TEST(FusionTest, VectorArgumentsForceEagerEvaluation) {
  // A stage with a vector argument may scatter-read, so it is never
  // deferred; the surrounding chain still matches the unfused run.
  auto scenario = [](RunResult& out) {
    Map<int> gather(
        "int fu_gather(int i, __global const int* table) {"
        " return table[i % 4]; }");
    Map<int> dbl("int fu_dbl(int x) { return 2 * x; }");
    Vector<int> table(std::vector<int>{10, 20, 30, 40});
    Arguments args;
    args.push(table);
    std::vector<int> idx(256);
    std::iota(idx.begin(), idx.end(), 0);
    Vector<int> input(idx);
    out.ints = dbl(gather(input, args)).hostData();
  };
  const RunResult fused = runScenario(scenario, 1, /*fused=*/true);
  const RunResult unfused = runScenario(scenario, 1, /*fused=*/false);
  EXPECT_EQ(fused.ints, unfused.ints);
  ASSERT_EQ(fused.ints.size(), 256u);
  EXPECT_EQ(fused.ints[1], 40);
}

TEST(FusionTest, ScalarArgumentsRideAlongIntoTheFusedKernel) {
  expectFusionWins([](RunResult& out) {
    Map<float> scale("float fu_ax(float x, float a) { return a * x; }");
    Map<float> shift("float fu_xb(float x, float b) { return x + b; }");
    Arguments aArgs;
    aArgs.push(3.0f);
    Arguments bArgs;
    bArgs.push(-1.25f);
    Vector<float> input(testData(1000));
    out.floats = shift(scale(input, aArgs), bArgs).hostData();
  });
}

} // namespace
