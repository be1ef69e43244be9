#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bench.h"
#include "parhull/common/random.h"
#include "parhull/core/hull_output.h"
#include "parhull/core/parallel_hull.h"
#include "parhull/engine/query.h"
#include "parhull/geometry/plane_kernel.h"
#include "parhull/geometry/predicates.h"
#include "parhull/hull/hull_common.h"
#include "parhull/parallel/scheduler.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace parhull;

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Report::fill(const std::string& name, double value,
                  const std::string& unit) {
  if (!has(name)) metrics.push_back({name, value, unit});
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics.begin(), metrics.end(),
                     [&](const Metric& m) { return m.name == name; });
}

double Report::value(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

void Report::add_summary(const std::string& p50_name,
                         const std::string& tail_name, const Summary& s,
                         const std::string& unit) {
  add(p50_name, s.p50, unit);
  if (!tail_name.empty()) add(tail_name, s.tail, unit);
  std::ostringstream os;
  os << "{\"n\":" << s.n << ",\"windows\":" << s.windows
     << ",\"tail_pct\":" << s.tail_pct * 100
     << ",\"tail_ok\":" << (s.tail_ok ? "true" : "false") << "}";
  samples.emplace_back(p50_name, os.str());
  if (!tail_name.empty()) samples.emplace_back(tail_name, os.str());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  return hash64(hash64(seed) ^ (purpose * 0x9e3779b97f4a7c15ULL + 1));
}

Point<3> random_point(Rng& rng, double r) {
  return Point<3>{{rng.next_double(-r, r), rng.next_double(-r, r),
                   rng.next_double(-r, r)}};
}

Point<3> sphere_point(Rng& rng, double r) {
  // Marsaglia: a uniform point of the unit ball, projected.
  Point<3> p{};
  double n = 0;
  do {
    p = random_point(rng, 1);
    n = std::sqrt(p.dot(p));
  } while (n < 1e-3 || n > 1);
  for (int j = 0; j < 3; ++j) p[j] *= r / n;
  return p;
}

std::string format_point(const Point<3>& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.17g %.17g %.17g", p[0], p[1], p[2]);
  return buf;
}

std::vector<PointId> hull_vertices(const HullSnapshot<3>& snap) {
  std::vector<PointId> v;
  for (const SnapshotFacet<3>& f : snap.facets) {
    v.insert(v.end(), f.vertices.begin(), f.vertices.end());
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::int64_t run_query(const HullSnapshot<3>& snap, const Point<3>& q,
                       int kind) {
  switch (kind % 3) {
    case 0:
      switch (locate_point<3>(snap, q)) {
        case PointLocation::kOutside: return 1;
        case PointLocation::kOnBoundary: return 0;
        case PointLocation::kInside: return -1;
      }
      return -1;
    case 1:
      return extreme_point<3>(snap, q).vertex;
    default:
      return static_cast<std::int64_t>(visible_facets<3>(snap, q).size());
  }
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

void live_points(const HullSnapshot<3>& snap, PointSet<3>& pts,
                 std::vector<PointId>& ids) {
  pts.clear();
  ids.clear();
  for (std::size_t i = 0; i < snap.point_count(); ++i) {
    const PointId id = static_cast<PointId>(i);
    if (snap.is_deleted(id)) continue;
    pts.push_back((*snap.points)[i]);
    ids.push_back(id);
  }
}

OneShotTimes check_i10(const HullSnapshot<3>& snap, int reps) {
  PointSet<3> pts;
  std::vector<PointId> ids;
  live_points(snap, pts, ids);
  require(prepare_input_tracked<3>(pts, ids), "I10: survivors are degenerate");
  std::vector<double> all_s, t1_s;
  for (int r = 0; r < 2 * reps; ++r) {
    const bool single = (r % 2) == 1;
    std::unique_ptr<Scheduler::WorkerLimit> limit;
    if (single) limit = std::make_unique<Scheduler::WorkerLimit>(1);
    ParallelHull<3> hull;
    ParallelHull<3>::Result res;
    const auto t0 = Clock::now();
    {
      Span span("core.alg3_survivors");
      res = hull.run(pts);
    }
    (single ? t1_s : all_s).push_back(s_since(t0));
    require(res.ok, "I10: one-shot build of the survivors failed");
    if (r == 0) {
      std::vector<std::array<PointId, 3>> oracle;
      oracle.reserve(res.hull.size());
      for (FacetId fid : res.hull) {
        std::array<PointId, 3> t{};
        for (int v = 0; v < 3; ++v) {
          t[static_cast<std::size_t>(v)] =
              ids[hull.facet(fid).vertices[static_cast<std::size_t>(v)]];
        }
        std::sort(t.begin(), t.end());
        oracle.push_back(t);
      }
      std::sort(oracle.begin(), oracle.end());
      require(canonical_snapshot_tuples<3>(snap) == oracle,
              "I10: engine facet set differs from the one-shot hull of its "
              "survivors");
    }
  }
  return {median(all_s), median(t1_s)};
}

int brute_locate(const HullSnapshot<3>& snap, const Point<3>& q) {
  const PointSet<3>& pts = *snap.points;
  bool boundary = false;
  for (const SnapshotFacet<3>& f : snap.facets) {
    const Point<3>& a = pts[f.vertices[0]];
    const Point<3>& b = pts[f.vertices[1]];
    const Point<3>& c = pts[f.vertices[2]];
    const int inner = orient3d(a, b, c, snap.interior);
    const int side = orient3d(a, b, c, q);
    if (side != 0 && side != inner) return 1;
    if (side == 0) boundary = true;
  }
  return boundary ? 0 : -1;
}

SweepSetup::SweepSetup(const PointSet<3>& pts)
    : store_(pts), count_(pts.size() - 3), out_(pts.size() - 3) {
  const std::array<PointId, 3> fv{0, 1, 2};
  plane_ = make_plane<3>(pts, fv, coord_bounds<3>(pts));
}

double SweepSetup::run_ms() const {
  const auto t0 = Clock::now();
  {
    Span span("geometry.classify_plane_side");
    classify_plane_side<3>(store_, plane_, nullptr, 3, count_, out_.data());
  }
  return ms_between(t0, Clock::now());
}

void SweepSetup::report(const std::vector<double>& ms, Report& rep) const {
  // Bytes moved per point: three 8-byte coordinate lanes read, one verdict
  // byte written.
  const double sweep_s = median(ms) * 1e-3;
  const double n = static_cast<double>(count_);
  rep.add("geometry.sweep_mpts_s", n / sweep_s / 1e6, "Mpts/s");
  rep.add("geometry.sweep_gb_s", n * (3 * sizeof(double) + 1) / sweep_s / 1e9,
          "GB/s");
}

std::string fingerprint_json(const Options& opt) {
  utsname u{};
  ::uname(&u);
  std::ostringstream os;
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"scheduler_workers\":" << Scheduler::get().num_workers()
     << ",\"plane_kernel\":\"" << plane_kernel_mode_name(plane_kernel_mode())
     << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
     << "\",\"compiler\":\"" << __VERSION__ << "\",\"git_commit\":\""
     << opt.commit << "\",\"source_digest\":\"" << opt.source
     << "\",\"kernel\":\"" << u.sysname << " " << u.release
     << "\",\"machine\":\"" << u.machine
     << "\",\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
     << ",\"seconds\":" << opt.seconds
     << ",\"trace\":" << (opt.trace ? 1 : 0) << "}";
  return os.str();
}

}  // namespace perfbench
