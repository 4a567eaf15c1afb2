// Additional VM coverage: control-flow corners, nested data structures,
// and type-system edge cases not exercised by the core suites.
#include <gtest/gtest.h>

#include "clc_test_util.h"

using namespace clc_test;

namespace {

int run1(const std::string& body, int x = 0) {
  const auto program = clc::compile(
      "__kernel void k(__global int* out, int x) {\n" + body + "\n}");
  std::vector<int> out(4, -999);
  Buffers bufs;
  auto a = bufs.add(out);
  run1D(program, "k", 1, 1, {a, scalarArg(x)}, bufs);
  return out[0];
}

TEST(VmControlFlow, NestedLoopsWithBreakAndContinue) {
  EXPECT_EQ(run1(R"(
    int acc = 0;
    for (int i = 0; i < 5; ++i) {
      for (int j = 0; j < 5; ++j) {
        if (j > i) break;       // inner break only
        if (j == 1) continue;   // skip j==1
        acc += 10 * i + j;
      }
    }
    out[0] = acc;
  )"),
            // i=0: j=0 -> 0; i=1: j=0 -> 10; i=2: j=0,2 -> 20+22
            // i=3: j=0,2,3 -> 30+32+33; i=4: j=0,2,3,4 -> 40+42+43+44
            0 + 10 + 42 + 95 + 169);
}

TEST(VmControlFlow, WatchdogStopsARunawayLoop) {
  // Verification proves a program safe, not terminating: a loop that
  // never exits traps once the work-item has run 2^28 cycles.
  try {
    run1("int i = 0; while (x == 0) { i = i + 1; } out[0] = i;");
    FAIL() << "runaway loop returned";
  } catch (const clc::TrapError& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(run1("int i = 0; while (i < x) { i = i + 1; } out[0] = i;", 5),
            5);
}

TEST(VmControlFlow, DoWhileWithContinue) {
  EXPECT_EQ(run1(R"(
    int i = 0;
    int acc = 0;
    do {
      ++i;
      if (i % 2 == 0) continue; // continue re-tests the condition
      acc += i;
    } while (i < 6);
    out[0] = acc;
  )"),
            1 + 3 + 5);
}

TEST(VmControlFlow, EmptyForBodyAndStepSideEffects) {
  EXPECT_EQ(run1(R"(
    int n = 0;
    for (int i = 0; i < 10; n += ++i) { }
    out[0] = n;
  )"),
            55);
}

TEST(VmControlFlow, EarlyReturnFromKernel) {
  const auto program = clc::compile(R"(
    __kernel void k(__global int* out) {
      size_t i = get_global_id(0);
      out[i] = 1;
      if (i % 2 == 0) return;
      out[i] = 2;
    }
  )");
  std::vector<int> out(6, 0);
  Buffers bufs;
  auto a = bufs.add(out);
  run1D(program, "k", 6, 2, {a}, bufs);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(VmControlFlow, TernaryAsCallArgument) {
  EXPECT_EQ(run1("out[0] = max(x > 0 ? x : -x, 5);", -9), 9);
  EXPECT_EQ(run1("out[0] = max(x > 0 ? x : -x, 5);", 2), 5);
}

TEST(VmData, NestedStructMemberChains) {
  const auto program = clc::compile(R"(
    typedef struct { float x; float y; } P;
    typedef struct { P a; P b; int tag; } Seg;
    __kernel void k(__global Seg* segs, __global float* out) {
      size_t i = get_global_id(0);
      Seg s = segs[i];
      float dx = s.b.x - s.a.x;
      float dy = s.b.y - s.a.y;
      out[i] = sqrt(dx * dx + dy * dy) + (float)s.tag;
      segs[i].a.x = 100.0f; // write through a nested member chain
    }
  )");
  struct P {
    float x, y;
  };
  struct Seg {
    P a, b;
    int tag;
  };
  std::vector<Seg> segs = {{{0, 0}, {3, 4}, 1}, {{1, 1}, {1, 2}, 7}};
  std::vector<float> out(2);
  Buffers bufs;
  auto sa = bufs.add(segs);
  auto oa = bufs.add(out);
  run1D(program, "k", 2, 1, {sa, oa}, bufs);
  EXPECT_FLOAT_EQ(out[0], 6.0f);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
  EXPECT_FLOAT_EQ(segs[0].a.x, 100.0f);
  EXPECT_FLOAT_EQ(segs[1].a.x, 100.0f);
}

TEST(VmData, ArraysInsideStructs) {
  const auto program = clc::compile(R"(
    typedef struct { int hist[4]; int total; } H;
    __kernel void k(__global H* hs) {
      size_t i = get_global_id(0);
      H h = hs[i];
      h.total = 0;
      for (int k = 0; k < 4; ++k) h.total += h.hist[k];
      hs[i] = h;
    }
  )");
  struct H {
    int hist[4];
    int total;
  };
  std::vector<H> hs = {{{1, 2, 3, 4}, 0}, {{10, 0, 0, 5}, 0}};
  Buffers bufs;
  auto a = bufs.add(hs);
  run1D(program, "k", 2, 1, {a}, bufs);
  EXPECT_EQ(hs[0].total, 10);
  EXPECT_EQ(hs[1].total, 15);
}

TEST(VmData, PointerToStructFieldViaArrow) {
  const auto program = clc::compile(R"(
    typedef struct { int value; int next; } Node;
    __kernel void k(__global Node* nodes, __global int* out) {
      // Walk a tiny linked list laid out in the buffer.
      __global Node* cur = &nodes[0];
      int acc = 0;
      for (int i = 0; i < 10; ++i) {
        acc += cur->value;
        if (cur->next < 0) break;
        cur = &nodes[cur->next];
      }
      out[0] = acc;
    }
  )");
  struct Node {
    int value, next;
  };
  std::vector<Node> nodes = {{5, 2}, {100, -1}, {7, 1}};
  std::vector<int> out(1);
  Buffers bufs;
  auto na = bufs.add(nodes);
  auto oa = bufs.add(out);
  run1D(program, "k", 1, 1, {na, oa}, bufs);
  EXPECT_EQ(out[0], 5 + 7 + 100);
}

TEST(VmData, BoolAndCharArithmetic) {
  EXPECT_EQ(run1(R"(
    bool b = x > 3;
    char c = (char)(x + 1);
    out[0] = (int)b * 100 + (int)c;
  )", 5),
            106);
  EXPECT_EQ(run1(R"(
    bool b = x > 3;
    out[0] = b ? 1 : 0;
  )", 1),
            0);
}

TEST(VmData, SizeofExpressionForm) {
  EXPECT_EQ(run1("float f = 0.0f; out[0] = (int)sizeof f;"), 4);
  EXPECT_EQ(run1("double d = 0.0; out[0] = (int)(sizeof d + sizeof(int));"),
            12);
}

TEST(VmData, NegationOfUnsignedWraps) {
  EXPECT_EQ(run1("uint u = 1u; out[0] = (int)(-u == 0xffffffffu ? 1 : 0);"),
            1);
}

TEST(VmData, CommaFreeMultipleDeclarators) {
  EXPECT_EQ(run1("int a = 1, b = a + 1, c = b * 3; out[0] = c;"), 6);
}

TEST(VmData, WriteThroughPointerParameterChain) {
  const auto program = clc::compile(R"(
    void put(__global int* dst, int offset, int value) {
      dst[offset] = value;
    }
    __kernel void k(__global int* out) {
      put(out, (int)get_global_id(0), 42);
    }
  )");
  std::vector<int> out(4, 0);
  Buffers bufs;
  auto a = bufs.add(out);
  run1D(program, "k", 4, 4, {a}, bufs);
  EXPECT_EQ(out, (std::vector<int>{42, 42, 42, 42}));
}

TEST(VmData, GlobalPointerStoredInPrivateStruct) {
  // Pointers are first-class 64-bit values; storing one in a private
  // struct and loading it back must preserve the segment/space bits.
  const auto program = clc::compile(R"(
    typedef struct { __global int* p; int off; } Ref;
    __kernel void k(__global int* data) {
      Ref r;
      r.p = data;
      r.off = 2;
      r.p[r.off] = 77;
    }
  )");
  std::vector<int> data(4, 0);
  Buffers bufs;
  auto a = bufs.add(data);
  run1D(program, "k", 1, 1, {a}, bufs);
  EXPECT_EQ(data[2], 77);
}

} // namespace
