// Workload engine_churn: one writer thread calls HullEngine<3>
// insert_batch / delete_batch / update_batch in a closed loop, 16 points a
// call, against a standing set of 50k interior points plus a 4k-point
// sphere shell, while two reader threads run locate_point / extreme_point /
// visible_facets on snapshot().
//
// Inserts add 16 shell points, deletes remove 16 hull vertices picked from
// the snapshot with a seeded RNG, updates do both in one epoch, in a fixed
// insert / delete / update cycle: hull size and live count stay flat and
// the per-epoch counts repeat exactly for a seed. Oracles: invariant I10
// every kCheckEvery epochs and at the end; every kOracleEvery-th reader
// locate is compared with a brute-force locate on the same snapshot.
#include <atomic>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.h"
#include "parhull/common/random.h"
#include "parhull/engine/engine.h"
#include "parhull/hull/hull_common.h"
#include "parhull/parallel/scheduler.h"
#include "parhull/workload/generators.h"

namespace perfbench {

using namespace parhull;

namespace {

constexpr std::size_t kInterior = 50000;
constexpr std::size_t kShell = 4000;
constexpr std::size_t kBatch = 16;
constexpr double kInteriorRadius = 0.9;
constexpr int kCheckEvery = 48;   // epochs between I10 checks
constexpr int kCountEpochs = 48;  // epochs behind the per-epoch counts
constexpr int kGroup = 64;        // reader queries per snapshot()
constexpr int kOracleEvery = 61;  // reader locates per brute-force check
constexpr int kWriterWorkers = 1;
// Tail windows (stats.h): p90 over 100 epochs, p99 over 1000 queries.
constexpr std::size_t kEpochWindow = 100;
constexpr std::size_t kReadWindow = 1000;

using Engine = HullEngine<3>;

PointSet<3> standing_set(std::uint64_t seed) {
  PointSet<3> pts = on_sphere<3>(kShell, derive_seed(seed, 2));
  PointSet<3> inner = uniform_ball<3>(kInterior, derive_seed(seed, 3));
  for (Point<3>& p : inner) {
    for (int j = 0; j < 3; ++j) p[j] *= kInteriorRadius;
  }
  pts.insert(pts.end(), inner.begin(), inner.end());
  return random_order<3>(pts, derive_seed(seed, 4));
}

// kBatch distinct hull vertices of the snapshot, chosen by `rng`.
std::vector<PointId> pick_vertices(const HullSnapshot<3>& snap, Rng& rng) {
  std::vector<PointId> verts = hull_vertices(snap);
  require(verts.size() > kBatch, "hull has too few vertices to delete");
  for (std::size_t i = 0; i < kBatch; ++i) {
    const std::size_t j = i + rng.next_u64() % (verts.size() - i);
    std::swap(verts[i], verts[j]);
  }
  verts.resize(kBatch);
  return verts;
}

// Readers stop, or park between query groups while `pause` is set so the
// driver can time the I10 oracle's one-shot builds on an idle host.
struct ReaderControl {
  std::atomic<bool> stop{false};
  std::atomic<bool> pause{false};
  std::atomic<int> parked{0};
};

struct ReaderStats {
  std::vector<float> ms;  // per-query latency
  std::uint64_t queries = 0;
  std::uint64_t oracle_checks = 0;
  std::uint64_t oracle_mismatches = 0;
};

void reader_loop(const Engine& engine, std::uint64_t seed, ReaderControl& ctl,
                 ReaderStats& out) {
  Rng rng(seed);
  while (!ctl.stop.load()) {
    if (ctl.pause.load()) {
      ++ctl.parked;
      while (ctl.pause.load() && !ctl.stop.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      --ctl.parked;
      continue;
    }
    Span span("engine.query_group");
    std::shared_ptr<const HullSnapshot<3>> snap = engine.snapshot();
    for (int i = 0; i < kGroup; ++i) {
      const Point<3> q = random_point(rng, 1.1);
      const auto t0 = Clock::now();
      const std::int64_t answer = run_query(*snap, q, i);
      out.ms.push_back(static_cast<float>(ms_between(t0, Clock::now())));
      ++out.queries;
      if (i % 3 == 0 && out.queries % kOracleEvery == 0) {
        ++out.oracle_checks;
        if (brute_locate(*snap, q) != answer) ++out.oracle_mismatches;
      }
    }
  }
}

}  // namespace

int run_churn(const Options& opt, Report& rep) {
  // ---- set-up: generate the standing set and build the engine ----
  std::vector<double> setup_s, gen_s;
  std::unique_ptr<Engine> engine;
  Engine::BatchResult first;
  PointSet<3> standing;
  for (int r = 0; r < kSetups; ++r) {
    const auto t0 = Clock::now();
    {
      Span span("workload.standing_set");
      standing = standing_set(opt.seed);
    }
    gen_s.push_back(s_since(t0));
    require(prepare_input<3>(standing), "standing set is degenerate");
    engine = std::make_unique<Engine>();
    {
      Span span("engine.insert_batch");
      first = engine->insert_batch(standing);
    }
    require(first.ok, "initial engine build failed");
    setup_s.push_back(s_since(t0));
  }
  rep.add("setup_s", median(setup_s), "s");
  rep.add("workload.gen_s", median(gen_s), "s");
  rep.add("core.visibility_tests", static_cast<double>(first.visibility_tests),
          "count");
  rep.add("core.facets_created", static_cast<double>(first.facets_created),
          "count");
  rep.add("core.dependence_depth", static_cast<double>(first.dependence_depth),
          "count");

  // ---- closed-loop mutations beside two readers ----
  ReaderControl ctl;
  ReaderStats readers[2];
  std::vector<std::thread> threads;
  const auto readers_start = Clock::now();
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back(reader_loop, std::cref(*engine),
                         derive_seed(opt.seed, 300 + t), std::ref(ctl),
                         std::ref(readers[t]));
  }

  // The writer runs on one worker and the readers on two more cores: the
  // fourth core stays free, so a core the host takes away briefly stalls
  // nobody.
  std::optional<Scheduler::WorkerLimit> writer_workers;
  writer_workers.emplace(kWriterWorkers);
  // I10 with the readers parked and every worker back: the one-shot build
  // times, taken all through the run, give hull_s and hull_t1_s.
  std::vector<double> oneshot_all_s, oneshot_t1_s;
  auto timed_check = [&] {
    ctl.pause = true;
    while (ctl.parked.load() < 2) std::this_thread::yield();
    writer_workers.reset();
    const OneShotTimes t = check_i10(*engine->snapshot(), 1);
    oneshot_all_s.push_back(t.all_s);
    oneshot_t1_s.push_back(t.t1_s);
    writer_workers.emplace(kWriterWorkers);
    ctl.pause = false;
    while (ctl.parked.load() > 0) std::this_thread::yield();
  };
  Rng pick(derive_seed(opt.seed, 5));
  std::vector<double> kind_ms[3];  // insert, delete, update
  std::vector<double> epoch_ms;
  double busy_s = 0;
  double tests = 0, created = 0, closure = 0, deletes = 0, regrows = 0,
         rebuilds = 0, hull_facets = 0;
  int epochs = 0;
  const auto start = Clock::now();
  try {
    while (epochs < kCountEpochs || s_since(start) < opt.seconds) {
      const int kind = epochs % 3;
      std::vector<PointId> dead;
      if (kind != 0) pick_vertices(*engine->snapshot(), pick).swap(dead);
      PointSet<3> fresh;
      if (kind != 1) {
        fresh = on_sphere<3>(kBatch, derive_seed(opt.seed, 1000 + epochs));
      }
      const auto t0 = Clock::now();
      Engine::BatchResult res;
      {
        Span span(kind == 0   ? "engine.insert_batch"
                  : kind == 1 ? "engine.delete_batch"
                              : "engine.update_batch");
        res = kind == 0   ? engine->insert_batch(fresh)
              : kind == 1 ? engine->delete_batch(dead)
                          : engine->update_batch(dead, fresh);
      }
      const double ms = ms_between(t0, Clock::now());
      ++rep.attempted;
      if (!res.ok) {
        ++rep.failed;
        continue;
      }
      busy_s += ms * 1e-3;
      kind_ms[kind].push_back(ms);
      epoch_ms.push_back(ms);
      ++epochs;
      if (epochs <= kCountEpochs) {
        tests += static_cast<double>(res.visibility_tests);
        created += static_cast<double>(res.facets_created);
        regrows += res.regrows;
        rebuilds += res.full_rebuild ? 1 : 0;
        if (kind != 0) {
          closure += static_cast<double>(res.closure_facets);
          deletes += 1;
        }
        if (epochs == kCountEpochs) {
          hull_facets = static_cast<double>(res.hull_facets);
        }
      }
      if (epochs % kCheckEvery == 0) timed_check();
    }
  } catch (...) {
    ctl.stop = true;
    for (std::thread& t : threads) t.join();
    throw;
  }
  ctl.stop = true;
  for (std::thread& t : threads) t.join();
  writer_workers.reset();
  const double readers_s = s_since(readers_start);

  std::vector<double> read_ms;
  std::uint64_t queries = 0, checks = 0, mismatches = 0;
  for (const ReaderStats& r : readers) {
    read_ms.insert(read_ms.end(), r.ms.begin(), r.ms.end());
    queries += r.queries;
    checks += r.oracle_checks;
    mismatches += r.oracle_mismatches;
  }
  require(mismatches == 0, "reader locate_point disagrees with brute force");
  rep.attempted += queries;

  const std::shared_ptr<const HullSnapshot<3>> final_snap = engine->snapshot();
  for (int r = 0; r < 3; ++r) {
    const OneShotTimes t = check_i10(*final_snap, 1);
    oneshot_all_s.push_back(t.all_s);
    oneshot_t1_s.push_back(t.t1_s);
  }
  const OneShotTimes oneshot{median(oneshot_all_s), median(oneshot_t1_s)};

  rep.add("ok_frac",
          1.0 - static_cast<double>(rep.failed) /
                    static_cast<double>(rep.attempted),
          "fraction");
  rep.add("hull_s", oneshot.all_s, "s");
  rep.add("hull_t1_s", oneshot.t1_s, "s");
  rep.add_summary("write_p50_ms", "write_tail_ms", summarize_windows(epoch_ms, kEpochWindow), "ms");
  rep.add_summary("read_p50_ms", "read_tail_ms", summarize_windows(read_ms, kReadWindow), "ms");
  rep.add("rate_per_s", static_cast<double>(epochs) / busy_s, "1/s");

  rep.add("parallel.speedup", oneshot.t1_s / oneshot.all_s, "x");
  rep.add("engine.insert_p50_ms", median(kind_ms[0]), "ms");
  rep.add("engine.delete_p50_ms", median(kind_ms[1]), "ms");
  rep.add("engine.update_p50_ms", median(kind_ms[2]), "ms");
  rep.add("engine.tests_per_epoch", tests / kCountEpochs, "count");
  rep.add("engine.facets_created_per_epoch", created / kCountEpochs, "count");
  rep.add("engine.closure_facets_per_delete", closure / deletes, "count");
  rep.add("engine.hull_facets", hull_facets, "count");
  rep.add("engine.regrows", regrows, "count");
  rep.add("engine.full_rebuilds", rebuilds, "count");
  rep.add("engine.query.kqps",
          static_cast<double>(queries) / readers_s / 1e3, "kqps");

  std::ostringstream os;
  os << "engine_churn: epochs=" << epochs << " (insert/delete/update p50 "
     << median(kind_ms[0]) << "/" << median(kind_ms[1]) << "/"
     << median(kind_ms[2]) << " ms) hull facets=" << final_snap->facet_count()
     << " live=" << final_snap->live_points << " reader queries=" << queries
     << " brute-force checks=" << checks;
  rep.note(os.str());
  if (opt.trace) {
    PointSet<3> live;
    std::vector<PointId> ids;
    live_points(*final_snap, live, ids);
    probe_layers(live, opt, rep);
  }
  return 0;
}

}  // namespace perfbench
