#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/prng.h"
#include "mandelbrot/mandelbrot.h"
#include "ocl/ocl.h"
#include "osem/osem.h"
#include "service/service.h"
#include "skelcl/skelcl.h"

namespace perfbench {

namespace {

namespace svc = skelcl::service;
using skelcl::detail::Runtime;

// Arrivals in the open-loop replay of a serial workload.
constexpr std::size_t kArrivals = 20000;

// Offered-rate ladder shared by every workload: kLadderSteps rates, each
// kLadderStep times the previous one, from the workload's lowest rate.
// The steps are fine enough that the SLO rate moves with small changes
// in op cost.
constexpr int kLadderSteps = 8192;
constexpr double kLadderStep = 1.001;

double ladderRate(double lowest, int step) {
  return lowest * std::pow(kLadderStep, step);
}

/// Highest rate on the ladder from `lowest` for which `meets` holds, by
/// binary search (a rate that misses the SLO is taken to have no higher
/// rate that meets it); 0 when even the lowest rate misses.
template <typename Meets>
double highestLadderRate(double lowest, Meets&& meets) {
  int lo = -1, hi = kLadderSteps;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (meets(ladderRate(lowest, mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo < 0 ? 0.0 : ladderRate(lowest, lo);
}

/// The open-loop arrival stream every workload replays: exponential
/// inter-arrival gaps scaled to a mean of exactly 1. It is a constant of
/// the benchmark, the same for every seed: the seed picks the ops, not
/// their arrival times. (Seeded arrivals made the virtual op latencies
/// of ten seeds spread by up to 0.058 of their median, on a fixed stream
/// the spread is below 0.01.)
std::vector<double> unitGaps(std::size_t count) {
  common::Xoshiro256 rng(0x5eedf00dULL);
  std::vector<double> gaps(count);
  double sum = 0;
  for (double& gap : gaps) {
    gap = -std::log(1.0 - rng.nextDouble());
    sum += gap;
  }
  for (double& gap : gaps) {
    gap *= double(count) / sum;
  }
  return gaps;
}

/// Open-loop replay of a serial op stream on the virtual clock: op i
/// arrives after the i-th gap (scaled to `ratePerS`), starts when it has
/// arrived and the previous op has finished, and takes serviceMs[i % n]
/// (its measured virtual duration, which does not depend on when it
/// starts). Returns each op's arrival-to-completion latency in ms.
std::vector<double> replaySerial(const std::vector<double>& serviceMs,
                                 const std::vector<double>& gaps,
                                 double ratePerS) {
  std::vector<double> latency(gaps.size());
  double arrival = 0, finish = 0;
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    arrival += gaps[i] * 1e3 / ratePerS;
    finish = std::max(arrival, finish) + serviceMs[i % serviceMs.size()];
    latency[i] = finish - arrival;
  }
  return latency;
}

/// The SLO rule: the tail meets the limit and the last op (whose wait
/// carries any backlog built up over the run) does too.
bool meetsSlo(const std::vector<double>& latencyMs, double limitMs) {
  return !latencyMs.empty() &&
         percentile(latencyMs, kTailPercentile) <= limitMs &&
         latencyMs.back() <= limitMs;
}

/// Device counters summed over the runtime's queues.
struct QueueTotals {
  std::uint64_t cycles = 0;
  std::uint64_t launches = 0;
};
QueueTotals queueTotals() {
  QueueTotals totals;
  auto& runtime = Runtime::instance();
  for (std::size_t d = 0; d < runtime.deviceCount(); ++d) {
    totals.cycles += runtime.queue(d).cumulativeKernelCycles();
    totals.launches += runtime.queue(d).cumulativeKernelLaunches();
  }
  return totals;
}

/// Library counters at one point in time; addDeltaTo() adds what
/// happened since then to a round.
struct Counters {
  QueueTotals queues = queueTotals();
  skelcl::KernelCache::Stats cache =
      Runtime::instance().kernelCache().stats();
  Runtime::FusionStats fusion = Runtime::instance().fusionStats();

  void addDeltaTo(Round& out) const {
    const Counters now;
    out.kernelCycles += now.queues.cycles - queues.cycles;
    out.launches += now.queues.launches - queues.launches;
    const skelcl::KernelCache::Stats cacheDelta = now.cache - cache;
    out.cacheHits += cacheDelta.hits;
    out.cacheMisses += cacheDelta.misses;
    const Runtime::FusionStats fusionDelta = now.fusion - fusion;
    out.fusedLaunches += fusionDelta.fusedLaunches;
    out.intermediateBytes += fusionDelta.intermediateBytes;
  }
};

void useSystem(std::uint32_t gpus) {
  ocl::configureSystem(ocl::SystemConfig::teslaS1070(gpus));
  skelcl::init(skelcl::DeviceSelection::nGPUs(gpus));
}

double msSince(std::uint64_t startNs) {
  return double(wallNs() - startNs) * 1e-6;
}

/// A workload whose ops run one after another, each taking a virtual
/// time that does not depend on when it starts. Its open-loop figures
/// come from replaying the first round's op times against the fixed
/// arrival stream.
class SerialWorkload : public Workload {
public:
  /// `ratePerS`: the fixed offered rate; `limitMs`: the SLO latency
  /// limit; `lowestRate`: the ladder's first rate. All are constants of
  /// the workload, never derived from the code measured.
  SerialWorkload(double ratePerS, double limitMs, double lowestRate)
      : gaps_(unitGaps(kArrivals)), ratePerS_(ratePerS),
        limitMs_(limitMs), lowestRate_(lowestRate) {}

  std::vector<double> scheduledLatenciesMs(const Round& first) override {
    return replaySerial(first.opVirtualMs, gaps_, ratePerS_);
  }

  double sloOpsPerVs(const Round& first, Ledger&) override {
    return highestLadderRate(lowestRate_, [&](double rate) {
      return meetsSlo(replaySerial(first.opVirtualMs, gaps_, rate), limitMs_);
    });
  }

private:
  std::vector<double> gaps_;
  double ratePerS_, limitMs_, lowestRate_;
};

// --- mandelbrot -------------------------------------------------------------
//
// A zoom into the seahorse valley on one simulated T10, all frames inside
// one init() cycle. The seed jitters each frame's centre by a few percent
// of its width, so seeds give distinct frames of similar cost.

class MandelbrotWorkload final : public SerialWorkload {
public:
  // 2000 frames offered per virtual second, a 2 ms limit.
  explicit MandelbrotWorkload(std::uint64_t seed)
      : SerialWorkload(2000.0, 2.0, 100.0) {
    common::Xoshiro256 rng(seed);
    const double targetX = -0.743643887, targetY = 0.131825904;
    double width = 3.2;
    for (int k = 0; k < kFrames; ++k) {
      mandelbrot::FractalParams p;
      p.width = 64;
      p.height = 48;
      p.maxIterations = 128;
      const double approach = 1.0 - std::pow(0.55, k);
      p.centerX = float(-0.6 + (targetX + 0.6) * approach +
                        (rng.nextDouble() - 0.5) * 0.06 * width);
      p.centerY = float(targetY * approach +
                        (rng.nextDouble() - 0.5) * 0.06 * width);
      p.viewWidth = float(width);
      width *= 0.55;
      frames_.push_back(p);
      references_.push_back(mandelbrot::computeReference(p).iterations);
    }
  }

  void setup() override {
    useSystem(1);
    mandelbrot::FractalParams tiny;
    tiny.width = 16;
    tiny.height = 16;
    tiny.maxIterations = 8;
    (void)mandelbrot::computeSkelCl(tiny);
  }

  void round(Round& out, Ledger& ledger) override {
    const Counters before;
    const std::uint64_t virtual0 = ocl::hostTimeNs();
    const std::uint64_t wall0 = wallNs();
    for (std::size_t k = 0; k < frames_.size(); ++k) {
      const std::uint64_t opWall = wallNs();
      const std::uint64_t opVirtual = ocl::hostTimeNs();
      mandelbrot::FractalResult result;
      {
        ScopedSpan span("mandelbrot.computeSkelCl", ++op_);
        result = mandelbrot::computeSkelCl(frames_[k]);
      }
      out.opWallMs.push_back(msSince(opWall));
      out.opVirtualMs.push_back(double(ocl::hostTimeNs() - opVirtual) * 1e-6);
      ledger.check(result.iterations == references_[k],
                   "mandelbrot frame " + std::to_string(k));
      out.digest.add(result.iterations);
    }
    out.wallSeconds = double(wallNs() - wall0) * 1e-9;
    out.virtualNs = ocl::hostTimeNs() - virtual0;
    before.addDeltaTo(out);
  }

private:
  static constexpr int kFrames = 8;

  std::vector<mandelbrot::FractalParams> frames_;
  std::vector<std::vector<std::int32_t>> references_;
  std::uint64_t op_ = 0;
};

// --- osem -------------------------------------------------------------------
//
// Each op is a full init -> reconstruct -> terminate cycle on four
// simulated T10s, so every op after set-up loads its programs from the
// disk cache. One seeded dataset per op.

class OsemWorkload final : public SerialWorkload {
public:
  // 400 reconstructions offered per virtual second, a 5 ms limit.
  explicit OsemWorkload(std::uint64_t seed)
      : SerialWorkload(400.0, 5.0, 20.0) {
    for (int d = 0; d < kDatasets; ++d) {
      osem::OsemParams p;
      p.vol = osem::VolumeDims{16, 16, 20, 1.0f};
      p.numEvents = 4000;
      p.numSubsets = 5;
      p.seed = seed * 1000 + std::uint64_t(d);
      datasets_.push_back(osem::generateDataset(p));
      references_.push_back(osem::reconstructSequential(datasets_.back()).image);
    }
  }

  void setup() override {
    osem::OsemParams tiny;
    tiny.vol = osem::VolumeDims{4, 4, 4, 1.0f};
    tiny.numEvents = 64;
    tiny.numSubsets = 2;
    useSystem(4);
    (void)osem::reconstructSkelCl(osem::generateDataset(tiny));
    skelcl::terminate();
  }

  void round(Round& out, Ledger& ledger) override {
    const std::uint64_t wall0 = wallNs();
    for (std::size_t d = 0; d < datasets_.size(); ++d) {
      const std::uint64_t opWall = wallNs();
      osem::OsemResult result;
      {
        ScopedSpan span("osem.op", ++op_);
        {
          ScopedSpan init("skelcl.init");
          useSystem(4);
        }
        const Counters before;
        {
          ScopedSpan rec("osem.reconstructSkelCl");
          result = osem::reconstructSkelCl(datasets_[d]);
        }
        before.addDeltaTo(out);
        // useSystem() restarted the virtual clock at zero.
        out.opVirtualMs.push_back(double(ocl::hostTimeNs()) * 1e-6);
        out.virtualNs += ocl::hostTimeNs();
        ScopedSpan fini("skelcl.terminate");
        skelcl::terminate();
      }
      out.opWallMs.push_back(msSince(opWall));
      const double rmse = osem::relativeRmse(references_[d], result.image);
      ledger.check(rmse < 1e-3, "osem dataset " + std::to_string(d) +
                                    " rmse " + std::to_string(rmse));
      out.digest.add(result.image);
    }
    out.wallSeconds = double(wallNs() - wall0) * 1e-9;
  }

  // The error image accumulates through a compare-exchange retry loop
  // (osem_skelcl.cl, atomic_add_f) that work-groups run concurrently on
  // the VM's host threads: retry counts, hence cycles and virtual time,
  // and the float summation order vary from run to run.
  bool bitExact() const override { return false; }

private:
  static constexpr int kDatasets = 3;

  std::vector<osem::Dataset> datasets_;
  std::vector<std::vector<float>> references_;
  std::uint64_t op_ = 0;
};

// --- service ----------------------------------------------------------------
//
// An open-loop trace of small jobs from four tenants through a fair-share
// JobServer with batching, replayed by pump() on one init() cycle. The
// arrival times are the benchmark's fixed stream (unitGaps); the seed
// picks each job's kind, tenant and inputs. A fixed share of jobs carries
// a user function no earlier job used, so programs are built and stored
// during the steady phase.

enum class JobKind { Dot, Chain, Scan, Stencil, Spmv, Novel };

const char* jobKindName(JobKind kind) {
  switch (kind) {
    case JobKind::Dot: return "dot";
    case JobKind::Chain: return "chain";
    case JobKind::Scan: return "scan";
    case JobKind::Stencil: return "stencil";
    case JobKind::Spmv: return "spmv";
    case JobKind::Novel: return "novel";
  }
  return "?";
}

template <typename T> std::vector<std::uint8_t> toBytes(const std::vector<T>& v) {
  std::vector<std::uint8_t> bytes(v.size() * sizeof(T));
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

/// One job of the trace: its inputs and the host oracle's output.
struct JobSpec {
  JobKind kind = JobKind::Chain;
  std::size_t tenant = 0;
  std::size_t gpu = 0;
  std::vector<float> a, b;
  std::vector<int> ints;
  std::vector<std::uint32_t> rowPtr, colIdx;
  std::vector<int> values;
  std::vector<std::uint8_t> expected;
  std::size_t n = 0; // vector length, stencil cells or matrix rows
};

// Small inputs, so per-job host work, not the VM, dominates the job. The
// seed picks each job's length (and stencil grid height) in a narrow
// range around these.
constexpr std::size_t kMinLength = 48, kLengthRange = 33;
constexpr std::size_t kGridW = 8;

JobSpec makeSpec(JobKind kind, std::size_t tenant, std::size_t gpu,
                 common::Xoshiro256& rng) {
  JobSpec s;
  s.kind = kind;
  s.tenant = tenant;
  s.gpu = gpu;
  s.n = kMinLength + rng.nextBelow(kLengthRange);
  const std::size_t n = s.n;
  switch (kind) {
    case JobKind::Dot:
    case JobKind::Chain:
    case JobKind::Novel: {
      s.a.resize(n);
      s.b.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        s.a[i] = float(rng.nextBelow(16));
        s.b[i] = float(rng.nextBelow(16));
      }
      if (kind == JobKind::Dot) {
        float sum = 0; // exact: small integers
        for (std::size_t i = 0; i < n; ++i) {
          sum += s.a[i] * s.b[i];
        }
        s.expected = toBytes(std::vector<float>{sum});
      } else {
        std::vector<float> out(n);
        for (std::size_t i = 0; i < n; ++i) {
          out[i] = 0.5f * (s.a[i] * s.b[i]) + 1.0f;
        }
        s.expected = toBytes(out);
      }
      break;
    }
    case JobKind::Scan: {
      s.ints.resize(n);
      for (int& x : s.ints) {
        x = int(rng.nextBelow(13));
      }
      std::vector<int> out(n);
      int acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = acc;
        acc += s.ints[i];
      }
      s.expected = toBytes(out);
      break;
    }
    case JobKind::Stencil: {
      const std::size_t rows = n / kGridW;
      s.n = rows * kGridW;
      s.ints.resize(s.n);
      for (int& x : s.ints) {
        x = int(rng.nextBelow(100));
      }
      const auto at = [&](long r, long c) {
        r = std::clamp(r, 0L, long(rows) - 1);
        c = std::clamp(c, 0L, long(kGridW) - 1);
        return s.ints[std::size_t(r) * kGridW + std::size_t(c)];
      };
      std::vector<int> out(s.ints.size());
      for (long r = 0; r < long(rows); ++r) {
        for (long c = 0; c < long(kGridW); ++c) {
          out[std::size_t(r) * kGridW + std::size_t(c)] =
              at(r - 1, c) + at(r, c - 1) + at(r, c + 1) + at(r + 1, c) -
              4 * at(r, c);
        }
      }
      s.expected = toBytes(out);
      break;
    }
    case JobKind::Spmv: {
      s.rowPtr.push_back(0);
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t nnz = rng.nextBelow(9);
        for (std::size_t k = 0; k < nnz; ++k) {
          s.colIdx.push_back(std::uint32_t(rng.nextBelow(n)));
          s.values.push_back(int(rng.nextBelow(11)) - 5);
        }
        s.rowPtr.push_back(std::uint32_t(s.colIdx.size()));
      }
      s.ints.resize(n);
      for (int& x : s.ints) {
        x = int(rng.nextBelow(21)) - 10;
      }
      std::vector<int> out(n, 0);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::uint32_t k = s.rowPtr[r]; k < s.rowPtr[r + 1]; ++k) {
          out[r] += s.values[k] * s.ints[s.colIdx[k]];
        }
      }
      s.expected = toBytes(out);
      break;
    }
  }
  return s;
}

/// Where a running job leaves its host timestamps and output.
struct JobSlot {
  std::uint64_t op = 0; // span op id
  std::uint64_t workStartNs = 0;
  std::uint64_t consumeEndNs = 0;
  std::vector<std::uint8_t> output;
};

skelcl::Vector<float> pinned(const std::vector<float>& data, std::size_t gpu) {
  skelcl::Vector<float> v(data);
  v.setDistribution(skelcl::Distribution::Single, gpu);
  return v;
}

/// The skeleton calls of one job. `novelTag` names the fresh user
/// functions of a Novel job (fixed width, so every tag yields programs of
/// identical shape and cost).
svc::Job makeJob(const JobSpec& spec, const std::shared_ptr<JobSlot>& slot,
                 std::uint64_t arrivalNs, std::uint32_t novelTag) {
  svc::Job job;
  job.arrivalNs = arrivalNs;
  const JobSpec* s = &spec;
  auto begin = [slot] { slot->workStartNs = wallNs(); };
  auto end = [slot] { slot->consumeEndNs = wallNs(); };
  switch (spec.kind) {
    case JobKind::Dot: {
      job.programKey = "dot";
      auto result = std::make_shared<skelcl::Scalar<float>>();
      job.work = [=](svc::JobContext&) {
        begin();
        ScopedSpan span("job.work", slot->op);
        skelcl::Zip<float> mult(
            "float sv_mul(float x, float y) { return x * y; }");
        skelcl::Reduce<float> sum(
            "float sv_sum(float x, float y) { return x + y; }");
        *result = sum(mult(pinned(s->a, s->gpu), pinned(s->b, s->gpu)));
      };
      job.consume = [=] {
        {
          ScopedSpan span("job.consume", slot->op);
          slot->output = toBytes(std::vector<float>{result->getValue()});
        }
        end();
      };
      break;
    }
    case JobKind::Chain:
    case JobKind::Novel: {
      char mulSrc[96], scaleSrc[96];
      if (spec.kind == JobKind::Novel) {
        job.programKey = "";
        std::snprintf(mulSrc, sizeof mulSrc,
                      "float nv_mul_%08x(float x, float y) { return x * y; }",
                      novelTag);
        std::snprintf(scaleSrc, sizeof scaleSrc,
                      "float nv_scl_%08x(float x) { return 0.5f * x + 1.0f; }",
                      novelTag);
      } else {
        job.programKey = "chain";
        std::snprintf(mulSrc, sizeof mulSrc,
                      "float sv_mul(float x, float y) { return x * y; }");
        std::snprintf(scaleSrc, sizeof scaleSrc,
                      "float sv_scl(float x) { return 0.5f * x + 1.0f; }");
      }
      auto out = std::make_shared<skelcl::Vector<float>>();
      const std::string mul = mulSrc, scale = scaleSrc;
      job.work = [=](svc::JobContext& ctx) {
        begin();
        ScopedSpan span("job.work", slot->op);
        skelcl::Zip<float> mult(mul);
        skelcl::Map<float> scl(scale);
        *out = scl(mult(pinned(s->a, s->gpu), pinned(s->b, s->gpu)));
        ctx.defer(*out);
      };
      job.consume = [=] {
        {
          ScopedSpan span("job.consume", slot->op);
          slot->output = toBytes(out->hostData());
        }
        end();
      };
      break;
    }
    case JobKind::Scan:
    case JobKind::Stencil:
    case JobKind::Spmv: {
      job.programKey = jobKindName(spec.kind);
      auto out = std::make_shared<skelcl::Vector<int>>();
      job.work = [=](svc::JobContext& ctx) {
        begin();
        ScopedSpan span("job.work", slot->op);
        if (s->kind == JobKind::Scan) {
          skelcl::Scan<int> scan("int sv_add(int x, int y) { return x + y; }");
          *out = scan(skelcl::Vector<int>(s->ints));
        } else if (s->kind == JobKind::Stencil) {
          skelcl::Stencil<int> lap(
              "int sv_lap(__global const int* w, uint st) {"
              "  int s = (int)st;"
              "  return w[1] + w[s] + w[s + 2] + w[2 * s + 1] - 4 * w[s + 1];"
              "}",
              skelcl::StencilShape{1, skelcl::Boundary::Clamp, kGridW});
          *out = lap(skelcl::Vector<int>(s->ints));
        } else {
          skelcl::CsrMatrix<int> matrix(s->n, s->n, s->rowPtr,
                                        s->colIdx, s->values);
          skelcl::SparseGather<int> spmv(
              "int sv_gather(int a, int xj) { return a * xj; }",
              "int sv_combine(int a, int b) { return a + b; }", "0");
          *out = spmv(matrix, skelcl::Vector<int>(s->ints));
        }
        ctx.defer(*out);
      };
      job.consume = [=] {
        {
          ScopedSpan span("job.consume", slot->op);
          slot->output = toBytes(out->hostData());
        }
        end();
      };
      break;
    }
  }
  return job;
}

class ServiceWorkload final : public Workload {
public:
  explicit ServiceWorkload(std::uint64_t seed) {
    // Fixed class counts in a seeded order. Reduce, Scan and Stencil
    // kernels cost the VM about a millisecond per job whatever the input
    // size (barrier trees over full work-groups; a stencil step is 20
    // launches over four devices), so they are few, and barrier-free
    // Map/Zip chains make up most of the trace.
    std::vector<JobKind> kinds;
    const std::pair<JobKind, std::size_t> mix[] = {
        {JobKind::Chain, 2880}, {JobKind::Novel, 48}, {JobKind::Dot, 48},
        {JobKind::Spmv, 48},   {JobKind::Scan, 24},  {JobKind::Stencil, 24}};
    for (const auto& [kind, count] : mix) {
      kinds.insert(kinds.end(), count, kind);
    }
    if (kinds.size() != kJobs) {
      throw std::logic_error("service mix does not add up to kJobs");
    }
    common::Xoshiro256 rng(seed);
    for (std::size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.nextBelow(i)]);
    }
    const std::vector<double> gaps = unitGaps(kinds.size());
    double t = 0;
    for (std::size_t j = 0; j < kinds.size(); ++j) {
      const std::size_t tenant = std::size_t(rng.nextBelow(kTenants));
      specs_.push_back(makeSpec(kinds[j], tenant, j % 4, rng));
      t += gaps[j];
      unitArrivals_.push_back(t);
    }
  }

  void setup() override {
    useSystem(4);
    // One job of every kind, at the trace's shapes, through the server.
    std::vector<JobSpec> warm;
    common::Xoshiro256 rng(7);
    for (JobKind kind : {JobKind::Dot, JobKind::Chain, JobKind::Scan,
                         JobKind::Stencil, JobKind::Spmv}) {
      warm.push_back(makeSpec(kind, 0, 0, rng));
    }
    svc::JobServer server(config());
    svc::Session& session = server.openSession("warmup");
    std::vector<std::shared_ptr<JobSlot>> slots;
    for (const JobSpec& spec : warm) {
      slots.push_back(std::make_shared<JobSlot>());
      session.submit(makeJob(spec, slots.back(), 0, 0));
    }
    server.pump();
  }

  void round(Round& out, Ledger& ledger) override {
    const Counters before;
    const std::uint64_t virtual0 = ocl::hostTimeNs();
    const std::uint64_t wall0 = wallNs();
    Trace trace = replay(kRatePerS);
    out.wallSeconds = double(wallNs() - wall0) * 1e-9;
    out.virtualNs = ocl::hostTimeNs() - virtual0;
    before.addDeltaTo(out);
    out.batches = trace.stats.batches;
    out.coalescedJobs = trace.stats.coalescedJobs;
    double waitNs = 0;
    for (std::size_t j = 0; j < kJobs; ++j) {
      const svc::JobStats stats = trace.handles[j].stats();
      waitNs += double(stats.queueWaitNs());
      out.opVirtualMs.push_back(double(stats.latencyNs()) * 1e-6);
      out.opWallMs.push_back(
          double(trace.slots[j]->consumeEndNs - trace.slots[j]->workStartNs) *
          1e-6);
      out.digest.add(trace.slots[j]->output);
    }
    out.queueWaitVirtualMs = waitNs * 1e-6 / double(kJobs);
    check(trace, ledger);
  }

  std::vector<double> scheduledLatenciesMs(const Round& first) override {
    return first.opVirtualMs;
  }

  double sloOpsPerVs(const Round&, Ledger& ledger) override {
    return highestLadderRate(kLowestRate, [&](double rate) {
      Trace trace = replay(rate);
      check(trace, ledger);
      // Handles are in arrival order, so the last latency carries the
      // backlog.
      std::vector<double> latency;
      for (const svc::JobHandle& handle : trace.handles) {
        latency.push_back(double(handle.stats().latencyNs()) * 1e-6);
      }
      return meetsSlo(latency, kLimitMs);
    });
  }

private:
  struct Trace {
    std::vector<std::shared_ptr<JobSlot>> slots;
    std::vector<svc::JobHandle> handles;
    svc::JobServer::ServerStats stats;
  };

  static svc::ServiceConfig config() {
    svc::ServiceConfig c;
    c.policy = svc::Policy::FairShare;
    c.queueCap = kJobs;
    c.batching = true;
    c.batchLimit = 8;
    return c;
  }

  /// Submits the whole trace, arrivals scaled to `ratePerS` from now on
  /// the virtual clock, and pumps it to completion.
  Trace replay(double ratePerS) {
    Trace trace;
    ScopedSpan span("service.round");
    svc::JobServer server(config());
    std::vector<svc::Session*> sessions;
    for (std::size_t t = 0; t < kTenants; ++t) {
      sessions.push_back(&server.openSession("tenant" + std::to_string(t)));
    }
    const std::uint64_t t0 = ocl::hostTimeNs();
    {
      ScopedSpan submit("service.submit");
      for (std::size_t j = 0; j < kJobs; ++j) {
        const JobSpec& spec = specs_[j];
        trace.slots.push_back(std::make_shared<JobSlot>());
        trace.slots.back()->op = ++op_;
        const std::uint64_t arrival =
            t0 + std::uint64_t(unitArrivals_[j] * 1e9 / ratePerS);
        trace.handles.push_back(sessions[spec.tenant]->submit(
            makeJob(spec, trace.slots.back(), arrival,
                    spec.kind == JobKind::Novel ? ++novelTag_ : 0)));
      }
    }
    {
      ScopedSpan pump("service.pump");
      server.pump();
    }
    trace.stats = server.serverStats();
    return trace;
  }

  void check(const Trace& trace, Ledger& ledger) const {
    for (std::size_t j = 0; j < kJobs; ++j) {
      bool ok = !trace.handles[j].failed() &&
                trace.slots[j]->output == specs_[j].expected;
      if (!ok) {
        try {
          trace.handles[j].rethrow();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: job %zu failed: %s\n", j, e.what());
        }
      }
      ledger.check(ok, std::string("service job ") + std::to_string(j) +
                           " (" + jobKindName(specs_[j].kind) + ")");
    }
  }

  static constexpr std::size_t kJobs = 3072;
  static constexpr std::size_t kTenants = 4;
  // Jobs offered per virtual second, the SLO limit and the ladder's
  // lowest rate: fixed constants, never derived from the code measured.
  static constexpr double kRatePerS = 15000.0;
  static constexpr double kLimitMs = 1.0;
  static constexpr double kLowestRate = 500.0;

  std::vector<JobSpec> specs_;
  std::vector<double> unitArrivals_;
  std::uint32_t novelTag_ = 0;
  std::uint64_t op_ = 0;
};

} // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "mandelbrot") {
    return std::make_unique<MandelbrotWorkload>(seed);
  }
  if (name == "osem") {
    return std::make_unique<OsemWorkload>(seed);
  }
  if (name == "service") {
    return std::make_unique<ServiceWorkload>(seed);
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (expected mandelbrot, osem or service)");
}

} // namespace perfbench
