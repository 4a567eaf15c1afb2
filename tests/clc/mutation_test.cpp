// Seeded mutation of cached kernel binaries. Each example kernel is built
// through the SkelCL kernel cache; then, per seed, a few payload bytes of
// its cache entry are mutated and the envelope is re-sealed with the
// payload's true FNV-1a64 digest, so the mutation reaches the
// deserializer and verifier instead of being stopped by the envelope.
// Every mutation must end in one of three ways: a typed rejection at load
// (the cache falls back to a rebuild), a clean run of every kernel, or a
// typed clc::TrapError. Anything else — a crash, an untyped exception, a
// hang — fails the test. Run it under ASan and UBSan
// (tools/sanitize.sh) to turn memory errors into failures.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "clc/vm.h"
#include "common/byte_stream.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/prng.h"
#include "ocl/ocl.h"
#include "skelcl/kernel_cache.h"

namespace {

// Cache entry envelope: magic, u64 payload length, 16 hex digits of the
// payload's FNV-1a64 digest, then the payload.
constexpr std::size_t kDigestAt = 4 + 8;
constexpr std::size_t kPayloadAt = kDigestAt + 16;
constexpr int kSeedsPerKernelFile = 250;
constexpr auto kMutationTimeLimit = std::chrono::seconds(60);

std::string readRepoFile(const std::string& relative) {
  std::ifstream in(std::string(SKELCL_REPRO_SOURCE_DIR) + "/" + relative,
                   std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Mutates 1-4 payload bytes (set, bit flip or +-1) and re-seals.
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> entry,
                                 std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  const std::size_t payload = entry.size() - kPayloadAt;
  const std::uint64_t edits = 1 + rng.nextBelow(4);
  for (std::uint64_t i = 0; i < edits; ++i) {
    std::uint8_t& byte = entry[kPayloadAt + rng.nextBelow(payload)];
    switch (rng.nextBelow(3)) {
      case 0: byte = std::uint8_t(rng.nextBelow(256)); break;
      case 1: byte ^= std::uint8_t(1u << rng.nextBelow(8)); break;
      default: byte = std::uint8_t(byte + (rng.nextBelow(2) ? 1 : 255)); break;
    }
  }
  const std::uint64_t h = common::fnv1a64(entry.data() + kPayloadAt, payload);
  std::uint8_t digest[8];
  for (std::size_t i = 0; i < 8; ++i) {
    digest[i] = std::uint8_t(h >> (8 * (7 - i)));
  }
  const std::string hex = common::toHex(digest, 8);
  std::copy(hex.begin(), hex.end(), entry.begin() + kDigestAt);
  return entry;
}

enum class Outcome { Rejected, Clean, Trapped };

/// Runs every kernel of `program` on small generic arguments: 4 KiB
/// buffers, 1 KiB of __local memory, small scalars, zeroed structs.
Outcome runAll(const clc::Program& program) {
  Outcome outcome = Outcome::Clean;
  for (const clc::KernelInfo& kernel : program.kernels) {
    const clc::FunctionInfo& f = program.functions[kernel.functionIndex];
    std::vector<std::vector<std::uint8_t>> buffers;
    std::vector<clc::KernelArgValue> args;
    for (const clc::ParamInfo& p : f.params) {
      clc::KernelArgValue arg;
      switch (p.kind) {
        case clc::ParamKind::GlobalPtr:
          arg.kind = clc::KernelArgValue::Kind::Buffer;
          arg.segmentIndex = std::uint32_t(buffers.size());
          buffers.emplace_back(4096, 0);
          break;
        case clc::ParamKind::LocalPtr:
          arg.kind = clc::KernelArgValue::Kind::Local;
          arg.localSize = 1024;
          break;
        case clc::ParamKind::Scalar:
          arg.scalar = p.scalarTag == clc::TypeTag::F32   ? 0x3f800000u
                       : p.scalarTag == clc::TypeTag::F64 ? 0x3ff0000000000000u
                                                          : 3u;
          break;
        case clc::ParamKind::Struct:
          arg.kind = clc::KernelArgValue::Kind::Struct;
          arg.bytes.assign(p.size, 0);
          break;
      }
      args.push_back(std::move(arg));
    }
    std::vector<clc::Segment> segments;
    for (auto& b : buffers) {
      segments.push_back(clc::Segment{b.data(), b.size()});
    }
    clc::NDRange range;
    range.globalSize[0] = 16;
    range.localSize[0] = 8;
    try {
      (void)clc::executeKernel(program, kernel.name, range, args, segments,
                               nullptr);
    } catch (const clc::TrapError&) {
      outcome = Outcome::Trapped;
    }
  }
  return outcome;
}

/// Aborts the process when one mutation runs past the time limit, so a
/// hang fails the test instead of stalling it.
class Watchdog {
public:
  Watchdog() : thread_([this] { watch(); }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
  }
  void start(const std::string& what) {
    std::lock_guard lock(mutex_);
    what_ = what;
    since_ = std::chrono::steady_clock::now();
  }

private:
  void watch() {
    std::unique_lock lock(mutex_);
    while (!wake_.wait_for(lock, std::chrono::milliseconds(200),
                           [this] { return stop_; })) {
      if (std::chrono::steady_clock::now() - since_ > kMutationTimeLimit) {
        std::fprintf(stderr, "mutation hangs: %s\n", what_.c_str());
        std::abort();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::string what_;
  std::chrono::steady_clock::time_point since_ = std::chrono::steady_clock::now();
  std::thread thread_;
};

TEST(CacheMutation, EveryMutationIsRejectedRunsCleanlyOrTraps) {
  const auto level = common::logLevel();
  common::setLogLevel(common::LogLevel::Error); // one warning per rejection
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(1));
  const auto gpus = ocl::getPlatforms()[0].devices(ocl::DeviceType::GPU);
  const ocl::Context context({gpus[0]});
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("clc-mutation-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  skelcl::KernelCache cache(dir.string());
  Watchdog watchdog;

  std::size_t counts[3] = {0, 0, 0};
  for (const char* file : {"src/mandelbrot/kernels/mandelbrot_opencl.cl",
                           "src/mandelbrot/kernels/mandelbrot_cuda.cl",
                           "src/osem/kernels/osem_opencl.cl",
                           "src/osem/kernels/osem_cuda.cl"}) {
    const std::string source = readRepoFile(file);
    cache.clear();
    (void)cache.getOrBuild(context, source);
    const auto entries = std::filesystem::directory_iterator(dir);
    const std::string path = entries->path().string();
    const std::vector<std::uint8_t> original = common::readFile(path);
    for (int seed = 0; seed < kSeedsPerKernelFile; ++seed) {
      const std::string what =
          std::string(file) + " seed " + std::to_string(seed);
      SCOPED_TRACE(what);
      watchdog.start(what);
      common::writeFile(path, mutate(original, std::uint64_t(seed)));
      const std::uint64_t hits = cache.stats().hits;
      try {
        const ocl::Program program = cache.getOrBuild(context, source);
        const Outcome outcome = cache.stats().hits == hits
                                    ? Outcome::Rejected
                                    : runAll(program.compiled());
        ++counts[int(outcome)];
      } catch (const std::exception& e) {
        ADD_FAILURE() << "unexpected failure: " << e.what();
      }
    }
  }
  std::filesystem::remove_all(dir);
  common::setLogLevel(level);

  std::printf("mutations: %zu rejected at load, %zu clean runs, %zu traps\n",
              counts[0], counts[1], counts[2]);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 4u * kSeedsPerKernelFile);
  EXPECT_GT(counts[int(Outcome::Rejected)], 0u);
  EXPECT_GT(counts[int(Outcome::Clean)], 0u);
}

} // namespace
