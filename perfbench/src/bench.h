// Shared pieces of the benchmark workloads: options, the result report, and
// the oracles more than one workload runs.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "parhull/common/random.h"
#include "parhull/engine/snapshot.h"
#include "parhull/geometry/plane.h"
#include "parhull/geometry/point.h"
#include "parhull/geometry/point_store.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";  // scratch files (durable tenant data, traces)
  std::string commit = "unknown";  // git commit of the checkout, if known
  std::string source = "unknown";  // digest of the sources that were built
};

// An oracle mismatch or a failed library call the workload cannot go on
// from. main() reports it and exits non-zero without printing a result.
struct BenchFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void require(bool ok, const std::string& what) {
  if (!ok) throw BenchFailure(what);
}

// Everything one run measured. Metrics keep insertion order; `samples`
// records the sample count behind each percentile-based metric.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> samples;  // name -> note
  std::vector<std::string> lines;  // human-readable lines for stdout
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Set a metric, replacing an earlier value of the same name.
  void add(const std::string& name, double value, const std::string& unit);
  // Set a metric only if the run has not measured it already.
  void fill(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double value(const std::string& name) const;  // 0 when absent
  // Median and tail of a latency series (in the series' own unit), with
  // the percentile, window count and sample count noted.
  void add_summary(const std::string& p50_name, const std::string& tail_name,
                   const Summary& s, const std::string& unit);
  void note(const std::string& line) { lines.push_back(line); }
};

// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetups = 9;

// Seed stream: one independent 64-bit seed per purpose.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

// Milliseconds between two steady-clock points.
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

// Uniform in the cube [-r, r]^3.
parhull::Point<3> random_point(parhull::Rng& rng, double r);
// Uniform on the sphere of radius r.
parhull::Point<3> sphere_point(parhull::Rng& rng, double r);
// "x y z" with every digit, for text commands.
std::string format_point(const parhull::Point<3>& p);

// Distinct hull vertices of a snapshot, ascending.
std::vector<parhull::PointId> hull_vertices(const parhull::HullSnapshot<3>& snap);

// One reader query; kind % 3 selects locate_point, extreme_point or
// visible_facets. Returns locate's verdict (+1 outside, 0 on the boundary,
// -1 inside), the extreme vertex, or the number of visible facets.
std::int64_t run_query(const parhull::HullSnapshot<3>& snap,
                       const parhull::Point<3>& q, int kind);

// A directory that exists, emptied, for the object's lifetime.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The live points of a snapshot in id order, with their ids.
void live_points(const parhull::HullSnapshot<3>& snap,
                 parhull::PointSet<3>& pts, std::vector<parhull::PointId>& ids);

// Invariant I10: the snapshot's facet set equals a one-shot Algorithm 3
// run over its live points (mapped back to engine ids). Runs the one-shot
// build `reps` times at all workers and `reps` times under WorkerLimit(1)
// and returns their median wall times; throws BenchFailure on a mismatch.
struct OneShotTimes {
  double all_s = 0;
  double t1_s = 0;
};
OneShotTimes check_i10(const parhull::HullSnapshot<3>& snap, int reps);

// Brute-force locate for the reader oracle: +1 outside, 0 on the
// boundary, -1 inside, by exact orientation against every facet.
int brute_locate(const parhull::HullSnapshot<3>& snap,
                 const parhull::Point<3>& q);

// Per-layer measurements taken by calling each layer's public functions
// on (a sample of) the workload's own points: single-thread query kernels,
// 16-point engine epochs, WAL appends and checkpoints, protocol parsing,
// command execution without the socket, and one loopback round trip.
// Workloads that exercise a layer themselves overwrite the probe's figure
// with their own; the rest keep the probe's.
void probe_layers(const parhull::PointSet<3>& pts, const Options& opt,
                  Report& rep);

// One visibility sweep: every point of the workload's SoA store classified
// against one cached facet plane, the inner loop of the conflict filters.
class SweepSetup {
 public:
  explicit SweepSetup(const parhull::PointSet<3>& pts);
  double run_ms() const;  // wall time of one sweep
  // geometry.sweep_mpts_s and geometry.sweep_gb_s from per-sweep times.
  void report(const std::vector<double>& ms, Report& rep) const;

 private:
  parhull::PointStore<3> store_;
  parhull::Plane<3> plane_{};
  std::size_t count_ = 0;
  mutable std::vector<std::int8_t> out_;
};

// Host and run fingerprint, one JSON object.
std::string fingerprint_json(const Options& opt);

int run_oneshot(const Options& opt, Report& rep);
int run_churn(const Options& opt, Report& rep);
int run_service(const Options& opt, Report& rep);

}  // namespace perfbench
