// Workload oneshot_ball: Algorithm 3 (ParallelHull<3>::run) on 10^6
// uniform-ball points, the paper's algorithm with h << n.
//
// Set-up generates and prepares the input kSetups times (median reported),
// then one untimed warm-up build fills the pools. The timed part repeats
// cycles of one all-worker build, one build under WorkerLimit(1), and a
// batch of single visibility sweeps over the SoA store, until --seconds
// have passed. Oracle: every build's canonical facet tuples and visibility
// test count equal those of the sequential Algorithm 2 on the same input.
#include <array>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "parhull/core/hull_output.h"
#include "parhull/core/parallel_hull.h"
#include "parhull/geometry/predicates.h"
#include "parhull/hull/hull_common.h"
#include "parhull/hull/sequential_hull.h"
#include "parhull/parallel/scheduler.h"
#include "parhull/workload/generators.h"

namespace perfbench {

using namespace parhull;

namespace {

constexpr std::size_t kPoints = 1000000;
constexpr int kSweepsPerCycle = 240;
constexpr std::size_t kSweepWindow = 100;  // sweep tail: p90 per 100 sweeps
constexpr std::size_t kBuildWindow = 3;    // build tail: max per 3 builds

using Tuples = std::vector<std::array<PointId, 3>>;

struct Build {
  double seconds = 0;
  ParallelHull<3>::Result res;
  Tuples tuples;
};

Build build_alg3(const PointSet<3>& pts) {
  Build b;
  ParallelHull<3> hull;
  const auto t0 = Clock::now();
  {
    Span span("core.alg3_run");
    b.res = hull.run(pts);
  }
  b.seconds = s_since(t0);
  require(b.res.ok, "Alg 3 build failed");
  b.tuples = canonical_facet_tuples<3>(hull, b.res.hull);
  return b;
}

}  // namespace

int run_oneshot(const Options& opt, Report& rep) {
  // ---- set-up ----
  std::vector<double> setup_s, gen_s;
  PointSet<3> pts;
  for (int r = 0; r < kSetups; ++r) {
    const auto t0 = Clock::now();
    {
      Span span("workload.uniform_ball");
      pts = uniform_ball<3>(kPoints, derive_seed(opt.seed, 1));
    }
    gen_s.push_back(s_since(t0));
    {
      Span span("hull.prepare_input");
      require(prepare_input<3>(pts), "input is degenerate");
    }
    setup_s.push_back(s_since(t0));
  }
  rep.add("setup_s", median(setup_s), "s");
  rep.add("workload.gen_s", median(gen_s), "s");
  build_alg3(pts);  // warm-up: the first build in a process pays pool growth

  // ---- oracle: sequential Algorithm 2 on the same input ----
  SequentialHull<3>::Result seq_res;
  Tuples seq_tuples;
  double alg2_s = 0;
  {
    SequentialHull<3> seq;
    const auto t0 = Clock::now();
    {
      Span span("hull.alg2_run");
      seq_res = seq.run(pts);
    }
    alg2_s = s_since(t0);
    require(seq_res.ok, "Alg 2 build failed");
    seq_tuples = canonical_facet_tuples<3>(seq, seq_res.hull);
  }
  rep.add("hull.alg2_s", alg2_s, "s");

  // ---- timed cycles ----
  const SweepSetup sweep(pts);
  std::vector<double> all_s, t1_s, sweep_ms;
  std::uint64_t exact = 0, calls = 0;
  ParallelHull<3>::Result last;
  const auto start = Clock::now();
  do {
    for (int k = 0; k < 2; ++k) {
      const bool single = k == 1;
      std::unique_ptr<Scheduler::WorkerLimit> limit;
      if (single) limit = std::make_unique<Scheduler::WorkerLimit>(1);
      reset_predicate_stats();
      Build b = build_alg3(pts);
      exact += predicate_exact_fallbacks();
      calls += predicate_calls();
      ++rep.attempted;
      require(b.tuples == seq_tuples,
              "Alg 3 facet set differs from Alg 2's");
      require(b.res.visibility_tests == seq_res.visibility_tests,
              "Alg 3 visibility-test count differs from Alg 2's");
      (single ? t1_s : all_s).push_back(b.seconds);
      last = b.res;
    }
    for (int k = 0; k < kSweepsPerCycle; ++k) {
      sweep_ms.push_back(sweep.run_ms());
      ++rep.attempted;
    }
  } while (s_since(start) < opt.seconds);

  const double hull_s = median(all_s);
  const double hull_t1_s = median(t1_s);
  rep.add("ok_frac", 1.0, "fraction");
  rep.add("hull_s", hull_s, "s");
  rep.add("hull_t1_s", hull_t1_s, "s");
  std::vector<double> all_ms;
  for (double s : all_s) all_ms.push_back(s * 1e3);
  rep.add_summary("write_p50_ms", "write_tail_ms", summarize_windows(all_ms, kBuildWindow), "ms");
  rep.add_summary("read_p50_ms", "read_tail_ms", summarize_windows(sweep_ms, kSweepWindow), "ms");
  rep.add("rate_per_s", static_cast<double>(kPoints) / hull_s, "1/s");

  rep.add("parallel.speedup", hull_t1_s / hull_s, "x");
  rep.add("core.visibility_tests", static_cast<double>(last.visibility_tests),
          "count");
  rep.add("core.facets_created", static_cast<double>(last.facets_created),
          "count");
  rep.add("core.dependence_depth", static_cast<double>(last.dependence_depth),
          "count");
  rep.add("core.hull_facets", static_cast<double>(last.hull.size()), "count");
  rep.add("geometry.exact_fallback_frac",
          calls != 0 ? static_cast<double>(exact) / static_cast<double>(calls)
                     : 0,
          "fraction");
  sweep.report(sweep_ms, rep);

  std::ostringstream os;
  os << "oneshot_ball: n=" << kPoints << " hull facets=" << last.hull.size()
     << " tests=" << last.visibility_tests << " builds=" << all_s.size()
     << "+" << t1_s.size() << " (T=all+T=1) hull_s=" << hull_s
     << " hull_t1_s=" << hull_t1_s << " alg2_s=" << alg2_s;
  rep.note(os.str());
  if (opt.trace) probe_layers(pts, opt, rep);
  return 0;
}

}  // namespace perfbench
