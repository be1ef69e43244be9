// Per-layer probes for the traced run (see bench.h: probe_layers). Each
// probe times calls into one layer's public functions on the workload's
// own points; a figure the workload already measured is kept (Report::fill).
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "client.h"
#include "parhull/common/random.h"
#include "parhull/containers/ridge_key.h"
#include "parhull/containers/ridge_map.h"
#include "parhull/core/parallel_hull.h"
#include "parhull/durability/recovery.h"
#include "parhull/engine/engine.h"
#include "parhull/engine/query.h"
#include "parhull/geometry/predicates.h"
#include "parhull/hull/hull_common.h"
#include "parhull/hull/sequential_hull.h"
#include "parhull/parallel/parallel_for.h"
#include "parhull/service/commands.h"
#include "parhull/service/listener.h"
#include "parhull/service/protocol.h"

namespace perfbench {

using namespace parhull;
namespace fs = std::filesystem;

namespace {

// Engine-side probes run on at most this many of the workload's points,
// service-side probes (which also journal their base set) on fewer.
constexpr std::size_t kEngineSample = 200000;
constexpr std::size_t kServiceSample = 20000;
constexpr int kQueryReps = 300;
constexpr int kEpochReps = 8;
constexpr int kCommitReps = 32;

PointSet<3> prepared_prefix(const PointSet<3>& pts, std::size_t n) {
  PointSet<3> out(pts.begin(),
                  pts.begin() + static_cast<std::ptrdiff_t>(std::min(n, pts.size())));
  require(prepare_input<3>(out), "probe sample is degenerate");
  return out;
}

double radius_of(const PointSet<3>& pts) {
  double r = 0;
  for (const Point<3>& p : pts) r = std::max(r, std::sqrt(p.dot(p)));
  return r;
}

void probe_oneshot(const PointSet<3>& pts, Report& rep) {
  PointSet<3> sample = prepared_prefix(pts, kEngineSample);
  if (!rep.has("hull.alg2_s")) {
    SequentialHull<3> seq;
    const auto t0 = Clock::now();
    {
      Span span("hull.alg2_run");
      require(seq.run(sample).ok, "probe: Alg 2 failed");
    }
    rep.add("hull.alg2_s", s_since(t0), "s");
  }
  reset_predicate_stats();
  ParallelHull<3> hull;
  ParallelHull<3>::Result res;
  {
    Span span("core.alg3_run");
    res = hull.run(sample);
  }
  require(res.ok, "probe: Alg 3 failed");
  const double calls = static_cast<double>(predicate_calls());
  rep.fill("geometry.exact_fallback_frac",
           calls != 0 ? static_cast<double>(predicate_exact_fallbacks()) / calls
                      : 0,
           "fraction");
  rep.fill("core.hull_facets", static_cast<double>(res.hull.size()), "count");

  // Ridge map: insert both facets of every hull ridge into a fresh CAS map
  // (the second insert of a key finds the first), as ProcessRidge does.
  std::vector<RidgeKey<3>> keys;
  for (FacetId f : res.hull) {
    const auto& v = hull.facet(f).vertices;
    keys.push_back(RidgeKey<3>::from_unsorted({v[0], v[1]}));
    keys.push_back(RidgeKey<3>::from_unsorted({v[0], v[2]}));
    keys.push_back(RidgeKey<3>::from_unsorted({v[1], v[2]}));
  }
  std::vector<double> ns;
  for (int r = 0; r < 5; ++r) {
    RidgeMapCAS<3> map(keys.size());
    const auto t0 = Clock::now();
    {
      Span span("containers.ridge_insert_and_set");
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (!map.insert_and_set(keys[i], static_cast<FacetId>(i))) {
          (void)map.get_value(keys[i], static_cast<FacetId>(i));
        }
      }
    }
    ns.push_back(ms_between(t0, Clock::now()) * 1e6 /
                 static_cast<double>(keys.size()));
    require(!map.failed(), "probe: ridge map overflowed");
  }
  rep.add("containers.ridge_insert_ns", median(ns), "ns");

  // Scheduler: one fork-join over 4 chunks per worker with no work inside.
  std::vector<double> us;
  const std::size_t chunks =
      4 * static_cast<std::size_t>(Scheduler::get().num_workers());
  for (int r = 0; r < 200; ++r) {
    const auto t0 = Clock::now();
    {
      Span span("parallel.parallel_for");
      parallel_for(0, chunks, [](std::size_t i) { asm volatile("" : : "r"(i)); },
                   1);
    }
    us.push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  rep.add("parallel.pfor_us", median(us), "us");
}

void probe_engine(const PointSet<3>& pts, std::uint64_t seed, Report& rep) {
  HullEngine<3> engine;
  {
    Span span("engine.insert_batch");
    require(engine.insert_batch(prepared_prefix(pts, kEngineSample)).ok,
            "probe: engine build failed");
  }
  const double radius = radius_of(*engine.snapshot()->points);
  Rng rng(seed);

  // Query kernels, single thread, quiescent snapshot.
  const std::shared_ptr<const HullSnapshot<3>> snap = engine.snapshot();
  std::vector<double> us[3];
  for (int i = 0; i < 3 * kQueryReps; ++i) {
    const Point<3> q = random_point(rng, 1.1 * radius);
    const auto t0 = Clock::now();
    {
      Span span("engine.query");
      run_query(*snap, q, i);
    }
    us[i % 3].push_back(ms_between(t0, Clock::now()) * 1e3);
  }
  rep.add("engine.query.locate_us", median(us[0]), "us");
  rep.add("engine.query.extreme_us", median(us[1]), "us");
  rep.add("engine.query.visible_us", median(us[2]), "us");

  // Reader throughput: two threads querying the quiescent snapshot.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> readers;
  const auto r0 = Clock::now();
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng local(seed + 1 + static_cast<std::uint64_t>(t));
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Span span("engine.query_group");
        for (int i = 0; i < 64; ++i, ++n) {
          run_query(*snap, random_point(local, 1.1 * radius), i);
        }
      }
      queries += n;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop = true;
  for (std::thread& th : readers) th.join();
  rep.fill("engine.query.kqps",
           static_cast<double>(queries.load()) / s_since(r0) / 1e3, "kqps");

  // 16-point epochs: shell inserts, hull-vertex deletes, both at once.
  std::vector<double> ms[3];
  double tests = 0, created = 0, closure = 0, regrows = 0, rebuilds = 0;
  for (int e = 0; e < 3 * kEpochReps; ++e) {
    const int kind = e % 3;
    PointSet<3> fresh;
    std::vector<PointId> dead;
    if (kind != 1) {
      for (int i = 0; i < 16; ++i) fresh.push_back(sphere_point(rng, radius));
    }
    if (kind != 0) {
      std::vector<PointId> verts = hull_vertices(*engine.snapshot());
      for (int i = 0; i < 16 && !verts.empty(); ++i) {
        const std::size_t j = rng.next_u64() % verts.size();
        dead.push_back(verts[j]);
        verts[j] = verts.back();
        verts.pop_back();
      }
    }
    HullEngine<3>::BatchResult res;
    const auto t0 = Clock::now();
    {
      Span span("engine.mutation_batch");
      res = kind == 0 ? engine.insert_batch(fresh)
                      : engine.update_batch(dead, fresh);
    }
    ms[kind].push_back(ms_between(t0, Clock::now()));
    require(res.ok, "probe: engine epoch failed");
    tests += static_cast<double>(res.visibility_tests);
    created += static_cast<double>(res.facets_created);
    closure += static_cast<double>(res.closure_facets);
    regrows += res.regrows;
    rebuilds += res.full_rebuild ? 1 : 0;
  }
  const double epochs = 3.0 * kEpochReps;
  rep.fill("engine.insert_p50_ms", median(ms[0]), "ms");
  rep.fill("engine.delete_p50_ms", median(ms[1]), "ms");
  rep.fill("engine.update_p50_ms", median(ms[2]), "ms");
  rep.fill("engine.tests_per_epoch", tests / epochs, "count");
  rep.fill("engine.facets_created_per_epoch", created / epochs, "count");
  rep.fill("engine.closure_facets_per_delete", closure / (2.0 * kEpochReps),
           "count");
  rep.fill("engine.hull_facets",
           static_cast<double>(engine.snapshot()->facet_count()), "count");
  rep.fill("engine.regrows", regrows, "count");
  rep.fill("engine.full_rebuilds", rebuilds, "count");
}

void probe_durability(const PointSet<3>& pts, const std::string& dir,
                      std::uint64_t seed, Report& rep) {
  durability::DurabilityOptions dopts;
  dopts.dir = dir;
  dopts.wal.sync = durability::WalSync::kAlways;
  dopts.checkpoint_every_bytes = 0;  // checkpoints only when asked
  durability::TenantDurability journal(dopts);
  durability::ReplayTarget none;
  none.restore_base = [](const PointSet<3>&, const std::vector<std::uint8_t>&) {
    return HullStatus::kOk;
  };
  none.apply_record = [](const durability::WalRecord&) { return HullStatus::kOk; };
  none.buffer_points = [](const PointSet<3>&) { return HullStatus::kOk; };
  require(journal.recover(none).status == HullStatus::kOk,
          "probe: cannot open the log");

  HullEngine<3> engine;
  const PointSet<3> base = prepared_prefix(pts, kServiceSample);
  const std::vector<PointId> no_deletions;
  {
    const auto res = engine.insert_batch(base);
    require(res.ok, "probe: engine build failed");
    const BatchJournal<3>::Commit c{res.epoch, 0, &no_deletions, &base,
                                    engine.snapshot().get()};
    require(journal.on_commit(c) == HullStatus::kOk, "probe: WAL append failed");
  }
  const double radius = radius_of(base);
  Rng rng(seed);
  const std::uint64_t bytes0 = journal.stats().wal_bytes;
  std::vector<double> us;
  for (int i = 0; i < kCommitReps; ++i) {
    PointSet<3> one{sphere_point(rng, radius)};
    const PointId first = static_cast<PointId>(engine.snapshot()->point_count());
    const auto res = engine.insert_batch(one);
    require(res.ok, "probe: engine epoch failed");
    const BatchJournal<3>::Commit c{res.epoch, first, &no_deletions, &one,
                                    engine.snapshot().get()};
    const auto t0 = Clock::now();
    HullStatus st;
    {
      Span span("durability.on_commit");
      st = journal.on_commit(c);
    }
    us.push_back(ms_between(t0, Clock::now()) * 1e3);
    require(st == HullStatus::kOk, "probe: WAL append failed");
  }
  rep.add("durability.wal.commit_us", median(us), "us");
  rep.add("durability.wal.bytes_per_mutation",
          static_cast<double>(journal.stats().wal_bytes - bytes0) / kCommitReps,
          "B");
  std::vector<double> ckpt_ms;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    {
      Span span("durability.on_checkpoint");
      require(journal.on_checkpoint(*engine.snapshot()) == HullStatus::kOk,
              "probe: checkpoint failed");
    }
    ckpt_ms.push_back(ms_between(t0, Clock::now()));
  }
  rep.add("durability.checkpoint.write_ms", median(ckpt_ms), "ms");
}

void probe_service(const PointSet<3>& pts, const std::string& dir,
                   std::uint64_t seed, Report& rep) {
  using namespace parhull::service;
  const PointSet<3> base = prepared_prefix(pts, kServiceSample);
  const double radius = radius_of(base);
  Rng rng(seed);

  // Protocol: frame extraction plus JSON parsing of a typical request.
  const std::string frame = json_request(12345, "t0", "query " + format_point(random_point(rng, radius)));
  std::vector<double> parse_us;
  for (int r = 0; r < 20; ++r) {
    const auto t0 = Clock::now();
    {
      Span span("service.protocol_parse");
      for (int i = 0; i < 1000; ++i) {
        const Frame f = extract_frame(frame, 1u << 20);
        std::vector<JsonField> fields;
        require(f.type == FrameType::kJson &&
                    parse_json_object(f.body, fields, nullptr),
                "probe: request frame did not parse");
      }
    }
    parse_us.push_back(ms_between(t0, Clock::now()));  // ms per 1000 = us each
  }
  rep.add("service.protocol.parse_us", median(parse_us), "us");

  // Commands: a durable tenant session, executed without the socket.
  {
    TenantSession session;
    durability::DurabilityOptions dopts;
    dopts.dir = dir + "/session";
    dopts.wal.sync = durability::WalSync::kAlways;
    require(session.open_durable(dopts).status == HullStatus::kOk,
            "probe: cannot open the session log");
    require(session.insert_points(base).status == HullStatus::kOk,
            "probe: session seed failed");
    std::vector<double> probe_us, mutation_ms;
    for (int i = 0; i < kQueryReps; ++i) {
      const std::string cmd = "query " + format_point(random_point(rng, 1.1 * radius));
      const auto t0 = Clock::now();
      {
        Span span("service.execute_probe");
        require(session.execute(cmd).status == HullStatus::kOk, "probe: query failed");
      }
      probe_us.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    for (int i = 0; i < 24; ++i) {
      const std::string cmd = "insert " + format_point(sphere_point(rng, radius));
      const auto t0 = Clock::now();
      {
        Span span("service.execute_mutation");
        require(session.execute(cmd).status == HullStatus::kOk, "probe: insert failed");
      }
      mutation_ms.push_back(ms_between(t0, Clock::now()));
    }
    rep.add("service.commands.probe_us", median(probe_us), "us");
    rep.add("service.commands.mutation_ms", median(mutation_ms), "ms");

    // Group commit: 4 threads x 8 concurrent inserts; acked per epoch.
    const std::uint64_t b0 = session.stats().batches;
    std::vector<std::string> cmds;
    for (int i = 0; i < 32; ++i) cmds.push_back("insert " + format_point(sphere_point(rng, radius)));
    std::vector<std::thread> threads;
    std::atomic<int> acked{0};
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int i = t; i < 32; i += 4) {
          if (session.execute(cmds[static_cast<std::size_t>(i)]).status == HullStatus::kOk) {
            ++acked;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    const std::uint64_t epochs = session.stats().batches - b0;
    rep.fill("engine.batcher.requests_per_epoch",
             epochs != 0 ? acked.load() / static_cast<double>(epochs) : 0, "count");

    // Recovery of what this session journaled, into a fresh session.
    session.close();
    TenantSession recovered;
    const auto t0 = Clock::now();
    {
      Span span("durability.recover");
      require(recovered.open_durable(dopts).status == HullStatus::kOk,
              "probe: session recovery failed");
    }
    rep.fill("durability.recovery.recover_s", s_since(t0), "s");
  }

  // Listener: closed-loop probes over one loopback connection to an
  // in-memory server seeded with the same points.
  {
    HullServer server;
    require(server.start() == HullStatus::kOk, "probe: server did not start");
    Connection conn;
    require(conn.connect(server.port()), "probe: cannot connect");
    std::string reply;
    std::string payload(reinterpret_cast<const char*>(base.data()),
                        base.size() * sizeof(Point<3>));
    require(conn.call(build_binary_frame(kBinInsert, "t0", payload), reply, 60000),
            "probe: seed frame got no reply");
    std::vector<double> rtt_ms;
    for (int i = 0; i < kQueryReps; ++i) {
      const std::string cmd = "query " + format_point(random_point(rng, 1.1 * radius));
      const auto t0 = Clock::now();
      {
        Span span("service.round_trip", static_cast<std::uint64_t>(i) + 1);
        require(conn.call(json_request(static_cast<std::uint64_t>(i) + 1, "t0", cmd),
                          reply, 60000),
                "probe: query got no reply");
      }
      rtt_ms.push_back(ms_between(t0, Clock::now()));
    }
    rep.fill("service.listener.wait_ms",
             median(rtt_ms) - rep.value("service.commands.probe_us") / 1e3, "ms");
    rep.fill("service.shed_frames", static_cast<double>(server.stats().shed_frames),
             "count");
  }
}

}  // namespace

void probe_layers(const PointSet<3>& pts, const Options& opt, Report& rep) {
  const ScratchDir scratch(opt.work_dir + "/probe-" + std::to_string(::getpid()));
  const std::string& dir = scratch.path();

  if (!rep.has("geometry.sweep_mpts_s")) {
    const SweepSetup sweep(pts);
    std::vector<double> ms;
    for (int r = 0; r < 30; ++r) ms.push_back(sweep.run_ms());
    sweep.report(ms, rep);
  }
  probe_oneshot(pts, rep);
  probe_engine(pts, derive_seed(opt.seed, 40), rep);
  probe_durability(pts, dir + "/wal", derive_seed(opt.seed, 41), rep);
  probe_service(pts, dir, derive_seed(opt.seed, 42), rep);
}

}  // namespace perfbench
