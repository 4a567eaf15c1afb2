// Per-layer micro-cases. Each one calls a single module's public
// functions, reports a count next to a time, and checks what it computed.
#include <cstring>
#include <memory>

#include "clc/codegen.h"
#include "clc/lexer.h"
#include "clc/opt.h"
#include "clc/parser.h"
#include "clc/sema.h"
#include "clc/serialize.h"
#include "clc/vm.h"
#include "common/byte_stream.h"
#include "layers.h"
#include "mandelbrot/mandelbrot.h"
#include "ocl/ocl.h"
#include "service/service.h"
#include "skelcl/skelcl.h"

namespace perfbench {

namespace {

namespace svc = skelcl::service;

std::string readText(const std::string& path) {
  const std::vector<std::uint8_t> bytes = common::readFile(path);
  return std::string(bytes.begin(), bytes.end());
}

/// Seconds `fn` takes.
template <typename Fn> double timed(Fn&& fn) {
  const std::uint64_t t0 = wallNs();
  fn();
  return double(wallNs() - t0) * 1e-9;
}

void useSystem(std::uint32_t gpus) {
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
  skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
}

// --- clc front end, optimizer and serialization over the corpus ----------

/// The repository's kernel sources. The SkelCL user-function files name
/// types the library registers at run time; the prelude declares them
/// exactly as the applications do.
struct CorpusFile {
  const char* path;
  const char* prelude;
};
const CorpusFile kCorpus[] = {
    {"src/mandelbrot/kernels/mandelbrot_cuda.cl", ""},
    {"src/mandelbrot/kernels/mandelbrot_opencl.cl", ""},
    {"src/mandelbrot/kernels/mandelbrot_skelcl.cl",
     "typedef struct { float re; float im; } PixelPos;\n"},
    {"src/osem/kernels/osem_cuda.cl", ""},
    {"src/osem/kernels/osem_opencl.cl", ""},
    {"src/osem/kernels/osem_skelcl.cl",
     "typedef struct { float x1; float y1; float z1;"
     " float x2; float y2; float z2; } Event;\n"
     "typedef struct { int nx; int ny; int nz; float voxelSize; }"
     " OsemDims;\n"},
    {"bench/baselines/dotproduct_kernel.cl", ""},
};

void clcPhases(const std::string& root, Ledger& ledger) {
  std::vector<std::string> sources;
  std::size_t bytes = 0;
  for (const CorpusFile& file : kCorpus) {
    sources.push_back(file.prelude + readText(root + "/" + file.path));
    bytes += sources.back().size();
  }
  const char* phases[] = {"lex", "parse", "sema", "codegen",
                          "opt", "serialize", "deserialize"};
  std::map<std::string, std::vector<double>> samples;
  std::size_t instrs = 0;
  const std::uint64_t start = wallNs();
  for (int rep = 0; rep < 40 && (rep < 5 || wallNs() - start < 400'000'000);
       ++rep) {
    double t[7] = {};
    instrs = 0;
    for (const std::string& source : sources) {
      t[0] += timed([&] { (void)clc::lexAndPreprocess(source); });
      std::unique_ptr<clc::TranslationUnit> unit;
      t[1] += timed([&] { unit = clc::parse(source); });
      t[2] += timed([&] { clc::analyze(*unit); });
      clc::Program program;
      t[3] += timed([&] { program = clc::generate(*unit); });
      t[4] += timed([&] { clc::optimize(program, clc::OptLevel::O2); });
      std::vector<std::uint8_t> blob;
      t[5] += timed([&] { blob = clc::serializeProgram(program); });
      clc::Program loaded;
      t[6] += timed([&] { loaded = clc::deserializeProgram(blob); });
      instrs += program.code.size();
      if (rep == 0) {
        ledger.check(!program.code.empty() &&
                         clc::serializeProgram(loaded) == blob,
                     "clc round trip");
      }
    }
    for (int p = 0; p < 7; ++p) {
      samples[phases[p]].push_back(t[p] * 1e3);
    }
  }
  for (const char* phase : phases) {
    ledger.record(std::string("clc.") + phase + "_ms", median(samples[phase]),
                  "ms");
  }
  std::printf("# clc corpus: %zu files, %zu bytes, %zu O2 instructions, "
              "%zu passes\n",
              sources.size(), bytes, instrs, samples["lex"].size());
}

// --- the VM, straight through clc::executeKernel ------------------------

clc::KernelArgValue bufferArg(std::uint32_t segment) {
  clc::KernelArgValue arg;
  arg.kind = clc::KernelArgValue::Kind::Buffer;
  arg.segmentIndex = segment;
  return arg;
}

clc::KernelArgValue scalarArg(std::int32_t value) {
  clc::KernelArgValue arg;
  arg.scalar = std::uint64_t(std::int64_t(value));
  return arg;
}

clc::KernelArgValue scalarArg(float value) {
  clc::KernelArgValue arg;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, 4);
  arg.scalar = bits;
  return arg;
}

const char* kReduceTreeSource = R"(
__kernel void reduce_tree(__global float* out, __global const float* in,
                          __local float* tmp) {
  int lid = (int)get_local_id(0);
  int lsz = (int)get_local_size(0);
  tmp[lid] = in[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = lsz / 2; s > 0; s /= 2) {
    if (lid < s) {
      tmp[lid] = tmp[lid] + tmp[lid + s];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (lid == 0) {
    out[get_group_id(0)] = tmp[0];
  }
}
)";

/// Millions of VM instructions per second over `reps` single-threaded
/// launches (the interpreter alone, without the host thread pool).
double vmRate(const clc::Program& program, const char* kernel,
              const clc::NDRange& range,
              const std::vector<clc::KernelArgValue>& args,
              std::vector<std::vector<std::uint8_t>>& buffers, int reps) {
  std::vector<double> seconds;
  std::uint64_t instructions = 0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<clc::Segment> segments;
    for (auto& b : buffers) {
      segments.push_back(clc::Segment{b.data(), b.size()});
    }
    clc::LaunchStats stats;
    seconds.push_back(timed([&] {
      stats = clc::executeKernel(program, kernel, range, args, segments,
                                 nullptr);
    }));
    instructions = stats.instructions;
  }
  return double(instructions) / median(seconds) * 1e-6;
}

void vm(const std::string& root, Ledger& ledger) {
  {
    mandelbrot::FractalParams params;
    params.width = 128;
    params.height = 96;
    params.maxIterations = 128;
    clc::Program program = clc::compile(
        readText(root + "/src/mandelbrot/kernels/mandelbrot_opencl.cl"));
    clc::optimize(program, clc::OptLevel::O2);
    clc::NDRange range;
    range.dims = 2;
    range.globalSize[0] = params.width;
    range.globalSize[1] = params.height;
    range.localSize[0] = 16;
    range.localSize[1] = 8;
    std::vector<std::vector<std::uint8_t>> buffers(
        1, std::vector<std::uint8_t>(params.pixels() * 4));
    const std::vector<clc::KernelArgValue> args = {
        bufferArg(0),
        scalarArg(std::int32_t(params.width)),
        scalarArg(std::int32_t(params.height)),
        scalarArg(params.x0()),
        scalarArg(params.y0()),
        scalarArg(params.dx()),
        scalarArg(params.dy()),
        scalarArg(std::int32_t(params.maxIterations))};
    ledger.record("clc.vm_minstr_per_s",
                  vmRate(program, "mandelbrot", range, args, buffers, 5),
                  "Minstr/s");
    const std::vector<std::int32_t> expected =
        mandelbrot::computeReference(params).iterations;
    ledger.check(std::memcmp(buffers[0].data(), expected.data(),
                             buffers[0].size()) == 0,
                 "vm mandelbrot");
  }
  {
    const std::size_t n = std::size_t(1) << 14;
    const std::size_t local = 64;
    clc::Program program = clc::compile(kReduceTreeSource);
    clc::optimize(program, clc::OptLevel::O2);
    clc::NDRange range;
    range.globalSize[0] = n;
    range.localSize[0] = local;
    std::vector<float> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = float(i % 17);
    }
    std::vector<std::vector<std::uint8_t>> buffers(2);
    buffers[0].resize(n / local * 4);
    buffers[1].resize(n * 4);
    std::memcpy(buffers[1].data(), in.data(), n * 4);
    clc::KernelArgValue tmp;
    tmp.kind = clc::KernelArgValue::Kind::Local;
    tmp.localSize = std::uint32_t(local * 4);
    ledger.record("clc.vm_barrier_minstr_per_s",
                  vmRate(program, "reduce_tree", range,
                         {bufferArg(0), bufferArg(1), tmp}, buffers, 5),
                  "Minstr/s");
    bool ok = true;
    for (std::size_t g = 0; g < n / local; ++g) {
      float expected = 0;
      for (std::size_t i = 0; i < local; ++i) {
        expected += in[g * local + i];
      }
      float got = 0;
      std::memcpy(&got, buffers[0].data() + g * 4, 4);
      ok = ok && got == expected;
    }
    ledger.check(ok, "vm tree reduction");
  }
}

// --- ocl: enqueue cost and transfers ------------------------------------

void oclQueue(Ledger& ledger) {
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(1));
  const ocl::Device device =
      ocl::getPlatforms().front().devices(ocl::DeviceType::GPU).front();
  ocl::Context context({device});
  ocl::CommandQueue queue(device);

  ocl::Program program = context.createProgram(
      "__kernel void touch(__global int* out) { out[0] = out[0] + 1; }");
  program.build();
  ocl::Kernel kernel = program.createKernel("touch");
  ocl::Buffer counter = context.createBuffer(device, 4);
  const std::int32_t zero = 0;
  queue.enqueueWriteBuffer(counter, 0, 4, &zero);
  kernel.setArg(0, counter);
  const int batch = 200;
  std::vector<double> perLaunchUs;
  for (int rep = 0; rep < 10; ++rep) {
    perLaunchUs.push_back(timed([&] {
                            for (int i = 0; i < batch; ++i) {
                              queue.enqueueNDRange(kernel,
                                                   ocl::NDRange1D{1, 1, 0});
                            }
                          }) *
                          1e6 / batch);
  }
  std::int32_t launched = 0;
  queue.enqueueReadBuffer(counter, 0, 4, &launched);
  ledger.check(launched == 10 * batch, "ocl trivial launches");
  ledger.record("ocl.launch_us", median(perLaunchUs), "us");

  const std::size_t bytes = std::size_t(4) << 20;
  std::vector<std::uint8_t> host(bytes), back(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    host[i] = std::uint8_t(i * 131 + 7);
  }
  ocl::Buffer buffer = context.createBuffer(device, bytes);
  std::vector<double> writeS, readS;
  for (int rep = 0; rep < 15; ++rep) {
    writeS.push_back(
        timed([&] { queue.enqueueWriteBuffer(buffer, 0, bytes, host.data()); }));
    readS.push_back(
        timed([&] { queue.enqueueReadBuffer(buffer, 0, bytes, back.data()); }));
  }
  ledger.check(back == host, "ocl write/read round trip");
  ledger.record("ocl.write_gbps", double(bytes) / median(writeS) * 1e-9,
                "GB/s");
  ledger.record("ocl.read_gbps", double(bytes) / median(readS) * 1e-9, "GB/s");
}

// --- skelcl: lazy call, consumption of a fused chain, scheduler drain ----

std::vector<float> ramp(std::size_t n, std::size_t salt) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = float((i * 7 + salt) % 23);
  }
  return v;
}

void skeletonCalls(Ledger& ledger) {
  useSystem(4);
  skelcl::Zip<float> mult(
      "float pb_mul(float x, float y) { return x * y; }");
  const std::size_t n = 1024;
  const std::size_t jobs = 32;
  {
    skelcl::Vector<float> a(ramp(n, 0)), b(ramp(n, 1));
    (void)mult(a, b).hostData(); // builds the program outside the timing
  }
  std::vector<double> callUs, drainMs;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<skelcl::Vector<float>> as, bs, outs(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      as.emplace_back(ramp(n, j));
      bs.emplace_back(ramp(n, j + 5));
    }
    for (std::size_t j = 0; j < jobs; ++j) {
      callUs.push_back(timed([&] { outs[j] = mult(as[j], bs[j]); }) * 1e6);
    }
    drainMs.push_back(timed([&] { (void)outs[0].hostData(); }) * 1e3);
    bool ok = true;
    for (std::size_t j = 0; j < jobs; ++j) {
      const std::vector<float>& got = outs[j].hostData();
      const std::vector<float> a = ramp(n, j), b = ramp(n, j + 5);
      for (std::size_t i = 0; i < n; ++i) {
        ok = ok && got[i] == a[i] * b[i];
      }
    }
    ledger.check(ok, "skelcl drained zips");
  }
  ledger.record("skelcl.call_us", median(callUs), "us");
  ledger.record("skelcl.drain_ms", median(drainMs), "ms");

  skelcl::Map<float> s1("float pb_s1(float x) { return x + 1.0f; }");
  skelcl::Map<float> s2("float pb_s2(float x) { return x * 2.0f; }");
  skelcl::Map<float> s3("float pb_s3(float x) { return x - 3.0f; }");
  skelcl::Map<float> s4("float pb_s4(float x) { return x * 0.5f; }");
  const std::vector<float> tiny = ramp(256, 3);
  std::vector<double> forceUs;
  bool ok = true;
  for (int rep = 0; rep < 150; ++rep) {
    skelcl::Vector<float> in(tiny);
    skelcl::Vector<float> out = s4(s3(s2(s1(in))));
    const std::vector<float>* got = nullptr;
    const double us = timed([&] { got = &out.hostData(); }) * 1e6;
    if (rep > 0) { // the first consumption builds the fused program
      forceUs.push_back(us);
    }
    for (std::size_t i = 0; i < tiny.size(); ++i) {
      ok = ok && (*got)[i] == ((tiny[i] + 1.0f) * 2.0f - 3.0f) * 0.5f;
    }
  }
  ledger.check(ok, "skelcl fused chain");
  ledger.record("skelcl.force_us", median(forceUs), "us");
  skelcl::terminate();
}

// --- the kernel cache: build and store, then load in a fresh cycle --------

/// Forces one program of each skeleton kind with a host read; returns
/// whether every result matched the host oracle.
bool programSet() {
  const std::size_t n = 512;
  const std::vector<float> a = ramp(n, 2), b = ramp(n, 9);
  bool ok = true;
  {
    skelcl::Map<float> map("float pc_map(float x) { return x * 3.0f; }");
    const skelcl::Vector<float> out = map(skelcl::Vector<float>(a));
    const std::vector<float>& got = out.hostData();
    for (std::size_t i = 0; i < n; ++i) {
      ok = ok && got[i] == a[i] * 3.0f;
    }
  }
  {
    skelcl::Zip<float> zip("float pc_zip(float x, float y) { return x - y; }");
    skelcl::Map<float> map("float pc_neg(float x) { return -x; }");
    const skelcl::Vector<float> out =
        map(zip(skelcl::Vector<float>(a), skelcl::Vector<float>(b)));
    const std::vector<float>& got = out.hostData();
    for (std::size_t i = 0; i < n; ++i) {
      ok = ok && got[i] == -(a[i] - b[i]);
    }
  }
  {
    skelcl::Reduce<float> sum("float pc_sum(float x, float y) { return x + y; }");
    float expected = 0;
    for (float x : a) {
      expected += x;
    }
    ok = ok && sum(skelcl::Vector<float>(a)).getValue() == expected;
  }
  {
    skelcl::Scan<int> scan("int pc_scan(int x, int y) { return x + y; }");
    std::vector<int> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = int(i % 13);
    }
    const skelcl::Vector<int> out = scan(skelcl::Vector<int>(in));
    const std::vector<int>& got = out.hostData();
    int acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ok = ok && got[i] == acc;
      acc += in[i];
    }
  }
  return ok;
}

void kernelCache(Ledger& ledger) {
  std::vector<double> buildMs, loadMs;
  for (int rep = 0; rep < 3; ++rep) {
    useSystem(1);
    auto& cache = skelcl::detail::Runtime::instance().kernelCache();
    cache.clear();
    const skelcl::KernelCache::Stats s0 = cache.stats();
    ledger.check(programSet(), "cache build set");
    const skelcl::KernelCache::Stats built = cache.stats() - s0;
    useSystem(1); // a fresh init cycle: empty program memo
    const skelcl::KernelCache::Stats s1 = cache.stats();
    ledger.check(programSet(), "cache load set");
    const skelcl::KernelCache::Stats loaded = cache.stats() - s1;
    ledger.check(built.misses > 0 && built.hits == 0 &&
                     loaded.hits == built.misses && loaded.misses == 0,
                 "cache: every program built once, then loaded");
    buildMs.push_back(built.buildSeconds * 1e3 / double(built.misses));
    loadMs.push_back(loaded.loadSeconds * 1e3 / double(loaded.hits));
    if (rep == 0) {
      std::printf("# kernel cache: %llu programs built then loaded\n",
                  (unsigned long long)built.misses);
    }
  }
  skelcl::terminate();
  const double build = median(buildMs), load = median(loadMs);
  ledger.record("skelcl.cache_build_ms", build, "ms");
  ledger.record("skelcl.cache_load_ms", load, "ms");
  ledger.record("skelcl.build_load_ratio", build / load, "ratio");
}

// --- service: a JobServer pump of N queued jobs ----------------------------

void servicePump(Ledger& ledger) {
  useSystem(4);
  const std::size_t tenants = 4, jobs = 32, n = 1024;
  std::vector<double> pumpMs, dispatchUs;
  for (int rep = 0; rep < 6; ++rep) {
    svc::ServiceConfig config;
    config.policy = svc::Policy::FairShare;
    config.queueCap = jobs;
    svc::JobServer server(config);
    std::vector<svc::Session*> sessions;
    for (std::size_t t = 0; t < tenants; ++t) {
      sessions.push_back(&server.openSession("pb" + std::to_string(t)));
    }
    double callbackS = 0;
    std::vector<std::shared_ptr<skelcl::Vector<float>>> outs;
    std::vector<svc::JobHandle> handles;
    for (std::size_t j = 0; j < jobs; ++j) {
      auto out = std::make_shared<skelcl::Vector<float>>();
      outs.push_back(out);
      svc::Job job;
      job.programKey = "pb-pump";
      job.work = [&callbackS, out, j, n](svc::JobContext& ctx) {
        callbackS += timed([&] {
          skelcl::Zip<float> add(
              "float pb_add(float x, float y) { return x + y; }");
          *out = add(skelcl::Vector<float>(ramp(n, j)),
                     skelcl::Vector<float>(ramp(n, j + 1)));
          ctx.defer(*out);
        });
      };
      job.consume = [&callbackS, out] {
        callbackS += timed([&] { (void)out->hostData(); });
      };
      handles.push_back(sessions[j % tenants]->submit(std::move(job)));
    }
    const double pumpS = timed([&] { server.pump(); });
    bool ok = true;
    for (std::size_t j = 0; j < jobs; ++j) {
      ok = ok && !handles[j].failed();
      const std::vector<float>& got = outs[j]->hostData();
      const std::vector<float> a = ramp(n, j), b = ramp(n, j + 1);
      for (std::size_t i = 0; i < n; ++i) {
        ok = ok && got[i] == a[i] + b[i];
      }
    }
    ledger.check(ok, "service pump jobs");
    if (rep > 0) { // the first pump builds the program
      pumpMs.push_back(pumpS * 1e3);
      dispatchUs.push_back((pumpS - callbackS) * 1e6 / double(jobs));
    }
  }
  skelcl::terminate();
  ledger.record("service.pump_ms", median(pumpMs), "ms");
  ledger.record("service.dispatch_us", median(dispatchUs), "us");
}

} // namespace

void runLayerCases(const std::string& root, Ledger& ledger) {
  clcPhases(root, ledger);
  vm(root, ledger);
  oclQueue(ledger);
  skeletonCalls(ledger);
  kernelCache(ledger);
  servicePump(ledger);
}

} // namespace perfbench
