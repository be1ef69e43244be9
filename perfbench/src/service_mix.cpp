// Workload service_mix: an in-process HullServer with two durable tenants
// (WalSync::kAlways, data under the work directory), each seeded with
// `gen` to E18 tenant size, driven in an OPEN loop by one client thread
// over four JSON connections, two per tenant.
//
// Requests are due on a fixed schedule (constant spacing at the rung's
// rate, round-robin over the connections) whether or not earlier replies
// came back; latency is timed from the due time, so a stall also charges
// the requests queued behind it. Replies are matched to requests by their
// JSON id. The mix is mostly probes (query / extreme / visible); mutations
// are weighted so the mutation median falls among inserts while deletes
// and updates make up the tail. Deletes and updates take ids from each
// tenant's seeded pool of initial points, so the inputs depend on the seed
// alone.
//
// The rate ladder is fixed. The nominal rung runs longest and supplies the
// latency metrics; the ladder climbs until two rungs in a row miss a limit
// (tail latency over its limit, any failure, late generator, or a growing
// backlog) or the backlog forces an abort. Max rate lies between the
// highest passing rung and the missed rung above it, where the limit ratio
// crosses 1.
//
// Oracles: per tenant, invariant I10 on the served snapshot and `hullhash`
// through the socket equal to the in-process digest; then a copy of the
// data directory taken while the server is idle (a crash image: log plus
// the set-up checkpoint) and the directory after an orderly stop are each
// recovered with recover_existing() into a fresh registry and must
// reproduce the same hullhash: acked => journaled.
#include <poll.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>

#include "bench.h"
#include "client.h"
#include "parhull/common/random.h"
#include "parhull/core/parallel_hull.h"
#include "parhull/hull/hull_common.h"
#include "parhull/service/listener.h"
#include "parhull/workload/generators.h"

namespace perfbench {

using namespace parhull;
using namespace parhull::service;
namespace fs = std::filesystem;

namespace {

constexpr int kTenants = 2;
constexpr int kConnections = 4;  // connection c serves tenant c % kTenants
constexpr std::size_t kTenantPoints = 2400;
// Fixed rate ladder (requests per second over all connections) and the
// limits a rung must meet; see README.md for how they were calibrated.
constexpr double kLadder[] = {60, 120, 170, 240, 340, 480, 680, 960, 1360, 1920};
constexpr int kNominal = 1;
constexpr double kNominalShare = 0.5;  // of --seconds, for the nominal rung
constexpr double kRungShare = 0.08;    // of --seconds, for every other rung
constexpr double kProbeLimitMs = 150;
constexpr double kMutationLimitMs = 150;
// A generator that cannot keep up falls behind on most requests; a host
// stall delays only the few due during it. So the lateness limit is on the
// median, and p99 and max are reported beside it.
constexpr double kLatenessLimitMs = 2;
// Closed-loop mutations per tenant journaled after the last checkpoint,
// so recovering the crash image replays them from the log.
constexpr int kTailMutations = 16;
constexpr double kDrainTimeoutS = 20;
// Tail windows (stats.h): p90 over each 100 probes and each 100 mutations.
constexpr std::size_t kProbeWindow = 100;
constexpr std::size_t kMutationWindow = 100;

enum Verb : int { kQuery, kExtreme, kVisible, kInsert, kDelete, kUpdate, kVerbs };
const char* const kVerbNames[kVerbs] = {"query",  "extreme", "visible",
                                        "insert", "delete",  "update"};
bool is_mutation(int verb) { return verb >= kInsert; }

std::string tenant_name(int t) {
  std::string name = "t";
  name += std::to_string(t);  // not "t" + ...: GCC 12 warns falsely (-Wrestrict)
  return name;
}

struct Pending {
  Clock::time_point due;
  int verb = 0;
};

struct RungResult {
  double rate = 0;
  double seconds = 0;
  std::uint64_t sent = 0;
  std::uint64_t replies = 0;
  std::vector<double> probe_ms, mutation_ms, late_ms;
  std::vector<double> verb_ms[kVerbs];
  std::uint64_t attempted[kVerbs] = {};
  std::map<std::string, std::uint64_t> failures;  // "verb/kind" -> count
  std::uint64_t failed = 0;
  std::size_t backlog_end = 0;
  bool aborted = false;
  double delivered = 0;
  double load = 0;  // see Rung::load
  bool pass = false;
};

class Client {
 public:
  Client(std::uint16_t port, std::uint64_t seed) : rng_(seed) {
    for (int c = 0; c < kConnections; ++c) {
      require(conns_[c].connect(port), "cannot connect to the server");
    }
  }

  // Closed-loop call on connection `c` (nothing else in flight).
  Reply call(int c, const std::string& cmd) {
    ++calls_;
    std::string line;
    require(conns_[c].call(json_request(next_id_++, tenant_name(c % kTenants),
                                        cmd),
                           line, 60000),
            "no reply to '" + cmd + "'");
    Reply r;
    require(parse_reply(line, r), "malformed reply: " + line);
    return r;
  }

  // Ids a tenant's deletes and updates may claim, in seeded order.
  void set_pool(int t, std::vector<PointId> ids) { pool_[t] = std::move(ids); }

  RungResult run_rung(double rate, double seconds);
  // The next request of the seeded mix for `tenant` (a mutation when
  // `mutation` is set); its verb goes to *verb.
  std::string next_command(int tenant, int* verb, bool mutation = false);
  std::uint64_t calls() const { return calls_; }
  std::uint64_t stray() const { return stray_; }

 private:
  void on_line(std::string_view line, Clock::time_point now, RungResult& r);
  void pump(Clock::time_point until, RungResult& r);

  Connection conns_[kConnections];
  ReplyTracker<Pending> tracker_;
  Rng rng_;
  std::uint64_t next_id_ = 1;
  std::uint64_t stray_ = 0;
  std::uint64_t calls_ = 0;
  Clock::time_point last_reply_{};
  std::vector<PointId> pool_[kTenants];
};

std::string Client::next_command(int tenant, int* verb, bool mutation) {
  // 80% probes; of the mutations 75% inserts, 15% deletes, 10% updates:
  // the median mutation is an insert, the p90 tail a delete or update.
  const double u = mutation ? rng_.next_double(0.8, 1.0) : rng_.next_double();
  int v = u < 0.40 ? kQuery
          : u < 0.60 ? kExtreme
          : u < 0.80 ? kVisible
          : u < 0.95 ? kInsert
          : u < 0.98 ? kDelete
                     : kUpdate;
  if ((v == kDelete || v == kUpdate) && pool_[tenant].empty()) v = kInsert;
  std::string cmd;
  switch (v) {
    case kQuery:
      cmd = "query " + format_point(random_point(rng_, 1.1));
      break;
    case kExtreme:
      cmd = "extreme " + format_point(sphere_point(rng_, 1));
      break;
    case kVisible:
      cmd = "visible " + format_point(sphere_point(rng_, rng_.next_double(1.02, 1.2)));
      break;
    case kInsert:
      cmd = "insert " + format_point(sphere_point(rng_, 1));
      break;
    default: {
      const PointId id = pool_[tenant].back();
      pool_[tenant].pop_back();
      cmd = (v == kDelete ? "delete " : "update ") + std::to_string(id);
      if (v == kUpdate) cmd += " " + format_point(sphere_point(rng_, 1));
      break;
    }
  }
  *verb = v;
  return cmd;
}

void Client::on_line(std::string_view line, Clock::time_point now,
                     RungResult& r) {
  Reply reply;
  if (!parse_reply(line, reply) || !reply.id) {
    ++stray_;
    return;
  }
  std::optional<Pending> p = tracker_.take(*reply.id);
  if (!p) {
    ++stray_;
    return;
  }
  const double ms = ms_between(p->due, now);
  trace::record("service.request", trace::to_ns(p->due), trace::to_ns(now),
                *reply.id);
  ++r.replies;
  if (reply.status != "ok") {
    ++r.failed;
    ++r.failures[std::string(kVerbNames[p->verb]) + "/" + reply.status];
    return;
  }
  last_reply_ = now;
  (is_mutation(p->verb) ? r.mutation_ms : r.probe_ms).push_back(ms);
  r.verb_ms[p->verb].push_back(ms);
}

// Read replies until `until` (or until nothing is in flight when `until`
// is in the past).
void Client::pump(Clock::time_point until, RungResult& r) {
  pollfd fds[kConnections];
  for (int c = 0; c < kConnections; ++c) {
    require(conns_[c].flush(), "socket write failed");
    fds[c] = {conns_[c].fd(),
              static_cast<short>(POLLIN | (conns_[c].wants_write() ? POLLOUT : 0)),
              0};
  }
  const auto left = until - Clock::now();
  const auto ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(left).count());
  timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
  if (::ppoll(fds, kConnections, &ts, nullptr) <= 0) return;
  const auto now = Clock::now();
  for (int c = 0; c < kConnections; ++c) {
    if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    require(conns_[c].read_lines([&](std::string_view line) {
              on_line(line, now, r);
            }),
            "server closed a connection");
  }
}

RungResult Client::run_rung(double rate, double seconds) {
  RungResult r;
  r.rate = rate;
  r.seconds = seconds;
  const std::uint64_t total = static_cast<std::uint64_t>(rate * seconds);
  const double spacing_ns = 1e9 / rate;
  // A rung passes only while the backlog stays within what the latency
  // limit allows; abort once it reaches twice that: the rung has failed
  // and draining a longer queue only burns time.
  const std::size_t backlog_allowed =
      static_cast<std::size_t>(rate * kMutationLimitMs / 1e3) + 4;
  const std::size_t abort_backlog = 2 * backlog_allowed;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  auto due_of = [&](std::uint64_t k) {
    return start + std::chrono::nanoseconds(
                       static_cast<std::int64_t>(spacing_ns * static_cast<double>(k)));
  };
  std::uint64_t k = 0;
  while (k < total) {
    const auto now = Clock::now();
    while (k < total && due_of(k) <= now) {
      const int c = static_cast<int>(k % kConnections);
      const int tenant = c % kTenants;
      int verb = 0;
      const std::string cmd = next_command(tenant, &verb);
      const std::uint64_t id = next_id_++;
      conns_[c].send(json_request(id, tenant_name(tenant), cmd));
      tracker_.add(id, Pending{due_of(k), verb});
      r.late_ms.push_back(ms_between(due_of(k), now));
      ++r.attempted[verb];
      ++r.sent;
      ++k;
    }
    if (tracker_.size() > abort_backlog) {
      r.aborted = true;
      break;
    }
    pump(k < total ? due_of(k) : now, r);
  }
  r.backlog_end = tracker_.size();
  const auto drain_until =
      Clock::now() + std::chrono::milliseconds(static_cast<int>(kDrainTimeoutS * 1e3));
  while (tracker_.size() != 0 && Clock::now() < drain_until) {
    pump(drain_until, r);
  }
  for (const Pending& p : tracker_.drain()) {
    ++r.failed;
    ++r.failures[std::string(kVerbNames[p.verb]) + "/missing"];
  }
  // Replies per second from the first due time to the last reply.
  r.delivered = r.replies == 0
                    ? 0
                    : static_cast<double>(r.replies) /
                          std::chrono::duration<double>(last_reply_ - start).count();
  const Summary probe = summarize_windows(r.probe_ms, kProbeWindow);
  const Summary mutation = summarize_windows(r.mutation_ms, kMutationWindow);
  r.load = std::max({probe.tail / kProbeLimitMs, mutation.tail / kMutationLimitMs,
                     static_cast<double>(r.backlog_end) /
                         static_cast<double>(backlog_allowed),
                     median(r.late_ms) / kLatenessLimitMs});
  r.pass = !r.aborted && r.failed == 0 && r.load <= 1;
  return r;
}

std::string rung_line(const RungResult& r, int index) {
  const Summary probe = summarize_windows(r.probe_ms, kProbeWindow);
  const Summary mutation = summarize_windows(r.mutation_ms, kMutationWindow);
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << "rung " << index << (index == kNominal ? " (nominal)" : "")
     << ": rate=" << r.rate << "/s over " << r.seconds << " s, sent=" << r.sent
     << " delivered=" << r.delivered << "/s probe p50/tail=" << probe.p50
     << "/" << probe.tail << " ms (p" << probe.tail_pct * 100 << ", n=" << probe.n
     << ") mutation p50/tail=" << mutation.p50 << "/" << mutation.tail
     << " ms (p" << mutation.tail_pct * 100 << ", n=" << mutation.n
     << ") lateness p50/p99/max=" << median(r.late_ms) << "/"
     << percentile(r.late_ms, 0.99) << "/"
     << percentile(r.late_ms, 1.0) << " ms backlog_end=" << r.backlog_end
     << (r.aborted ? " ABORTED" : "") << " failed=" << r.failed
     << " load=" << r.load
     << (r.pass ? " PASS" : " MISS") << "\n    attempted (p50 ms):";
  for (int v = 0; v < kVerbs; ++v) {
    os << " " << kVerbNames[v] << "=" << r.attempted[v] << " ("
       << median(r.verb_ms[v]) << ")";
  }
  for (const auto& [kind, n] : r.failures) os << " FAIL " << kind << "=" << n;
  return os.str();
}

ServiceOptions server_options(const std::string& data_dir) {
  ServiceOptions so;
  so.worker_threads = 4;
  so.tenants.data_dir = data_dir;
  so.tenants.wal.sync = durability::WalSync::kAlways;
  return so;
}

std::uint64_t snapshot_hash(TenantSession& s) {
  auto snap = s.snapshot();
  require(snap != nullptr, "tenant has no snapshot");
  return canonical_hull_hash<3>(*snap);
}

std::uint64_t parse_hash(const Reply& r) {
  const std::string* h = r.field("hash");
  require(h != nullptr, "hullhash reply without a hash");
  return std::strtoull(h->c_str(), nullptr, 16);
}

// Recover every tenant under `dir` into a fresh registry and compare each
// tenant's digest with `expect`. Returns the recovery wall time.
double recover_and_compare(const std::string& dir,
                           const std::vector<std::uint64_t>& expect,
                           const char* what) {
  TenantRegistry::Options ro;
  ro.data_dir = dir;
  ro.wal.sync = durability::WalSync::kAlways;
  TenantRegistry registry(ro);
  const auto t0 = Clock::now();
  std::size_t n = 0;
  {
    Span span("durability.recover_existing");
    n = registry.recover_existing();
  }
  const double s = s_since(t0);
  require(n == kTenants, std::string(what) + ": recovered the wrong tenant count");
  for (int t = 0; t < kTenants; ++t) {
    TenantSession* session = registry.get_or_create(tenant_name(t));
    require(session != nullptr && snapshot_hash(*session) == expect[t],
            std::string(what) + ": recovered hullhash differs for tenant " +
                tenant_name(t));
  }
  return s;
}

}  // namespace

int run_service(const Options& opt, Report& rep) {
  const ScratchDir scratch(opt.work_dir + "/service-" + std::to_string(::getpid()));
  const std::string& base = scratch.path();
  const std::string data_dir = base + "/data";
  std::unique_ptr<HullServer> server;
  std::unique_ptr<Client> client;
  std::vector<double> setup_s, gen_s;
  std::vector<PointId> first_ids(kTenants), counts(kTenants);

  // ---- set-up, kSetups times: fresh data dir, server, seeded tenants ----
  for (int r = 0; r < kSetups; ++r) {
    client.reset();
    server.reset();
    std::error_code ec;
    fs::remove_all(data_dir, ec);
    fs::create_directories(data_dir);
    const auto t0 = Clock::now();
    server = std::make_unique<HullServer>(server_options(data_dir));
    require(server->start() == HullStatus::kOk, "server did not start");
    client = std::make_unique<Client>(server->port(), derive_seed(opt.seed, 7));
    const auto g0 = Clock::now();
    for (int t = 0; t < kTenants; ++t) {
      Span span("service.gen");
      const Reply g = client->call(
          t, "gen " + std::to_string(kTenantPoints) + " " +
                 std::to_string(derive_seed(opt.seed, 20 + t) % 1000000007));
      require(g.status == "ok", "gen failed");
      first_ids[t] = static_cast<PointId>(g.uint_field("first_id", 0));
      counts[t] = static_cast<PointId>(g.uint_field("count", 0));
      require(counts[t] == kTenantPoints, "gen committed the wrong count");
    }
    gen_s.push_back(s_since(g0));
    for (int t = 0; t < kTenants; ++t) {
      Span span("service.persist");
      require(client->call(t, "persist").status == "ok", "persist failed");
    }
    setup_s.push_back(s_since(t0));
  }
  rep.add("setup_s", median(setup_s), "s");
  rep.add("workload.gen_s", median(gen_s), "s");
  Rng pool_rng(derive_seed(opt.seed, 8));
  for (int t = 0; t < kTenants; ++t) {
    std::vector<PointId> ids(counts[t]);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = first_ids[t] + static_cast<PointId>(i);
    }
    for (std::size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[pool_rng.next_u64() % i]);
    }
    client->set_pool(t, std::move(ids));
  }
  auto batches = [&] {
    std::uint64_t b = 0;
    for (int t = 0; t < kTenants; ++t) {
      b += server->registry().get_or_create(tenant_name(t))->stats().batches;
    }
    return b;
  };

  // ---- the rate ladder ----
  constexpr int kRungs = static_cast<int>(std::size(kLadder));
  const double nominal_s = opt.seconds * kNominalShare;
  const double rung_s = opt.seconds * kRungShare;
  std::vector<Rung> rungs;
  RungResult nominal;
  double requests_per_epoch = 0;
  for (int i = 0; i < kRungs; ++i) {
    const std::uint64_t b0 = batches();
    RungResult r = client->run_rung(kLadder[i], i == kNominal ? nominal_s : rung_s);
    rep.attempted += r.sent;
    rep.failed += r.failed;
    rep.note(rung_line(r, i));
    rungs.push_back({r.rate, r.delivered, r.pass, r.load});
    if (i == kNominal) {
      const std::uint64_t epochs = batches() - b0;
      std::uint64_t acked = 0;
      for (int v = kInsert; v < kVerbs; ++v) acked += r.attempted[v];
      for (const auto& [kind, n] : r.failures) {
        if (kind.rfind("insert/", 0) == 0 || kind.rfind("delete/", 0) == 0 ||
            kind.rfind("update/", 0) == 0) {
          acked -= n;
        }
      }
      requests_per_epoch = epochs != 0 ? static_cast<double>(acked) /
                                             static_cast<double>(epochs)
                                       : 0;
      nominal = std::move(r);
    } else if (r.aborted ||
               (!r.pass && rungs.size() >= 2 && !rungs[rungs.size() - 2].pass)) {
      break;  // saturated, or two misses in a row: past the knee
    }
  }
  const int best = select_max_rung(rungs);

  // ---- oracles: I10, hullhash through the socket, recovery ----
  // Checkpoint, then journal a few more acked mutations: the crash image
  // below holds them only in the log.
  for (int t = 0; t < kTenants; ++t) {
    require(client->call(t, "persist").status == "ok", "persist failed");
    for (int i = 0; i < kTailMutations; ++i) {
      int verb = 0;
      const std::string cmd = client->next_command(t, &verb, true);
      require(client->call(t, cmd).status == "ok", "'" + cmd + "' failed");
    }
  }
  std::vector<std::uint64_t> hashes(kTenants);
  double hull_s = 0, hull_t1_s = 0;
  for (int t = 0; t < kTenants; ++t) {
    Reply h;
    {
      Span span("service.hullhash");
      h = client->call(t, "hullhash");
    }
    require(h.status == "ok", "hullhash failed");
    hashes[t] = parse_hash(h);
    TenantSession* session = server->registry().get_or_create(tenant_name(t));
    require(snapshot_hash(*session) == hashes[t],
            "hullhash through the socket differs from the served snapshot");
    const OneShotTimes times = check_i10(*session->snapshot(), 25);
    hull_s += times.all_s;
    hull_t1_s += times.t1_s;
  }
  const std::string crash_dir = base + "/crash-image";
  fs::copy(data_dir, crash_dir, fs::copy_options::recursive);
  const ServiceStats stats = server->stats();
  PointSet<3> tenant_live;
  {
    std::vector<PointId> ids;
    live_points(*server->registry().get_or_create(tenant_name(0))->snapshot(),
                tenant_live, ids);
  }
  const std::uint64_t client_calls = client->calls();
  const std::uint64_t stray = client->stray();
  client.reset();
  server->stop();
  server.reset();
  const double recover_s = recover_and_compare(crash_dir, hashes, "crash image");
  recover_and_compare(data_dir, hashes, "orderly stop");

  // One-shot counts of a seeded tenant: deterministic for the seed.
  {
    PointSet<3> seeded;
    {
      Span span("workload.on_sphere");
      seeded = on_sphere<3>(kTenantPoints, derive_seed(opt.seed, 20) % 1000000007);
    }
    require(prepare_input<3>(seeded), "seed set is degenerate");
    ParallelHull<3> hull;
    const ParallelHull<3>::Result res = hull.run(seeded);
    require(res.ok, "one-shot build of the seed set failed");
    rep.add("core.visibility_tests", static_cast<double>(res.visibility_tests),
            "count");
    rep.add("core.facets_created", static_cast<double>(res.facets_created),
            "count");
    rep.add("core.dependence_depth", static_cast<double>(res.dependence_depth),
            "count");
  }

  const Summary probe = summarize_windows(nominal.probe_ms, kProbeWindow);
  const Summary mutation = summarize_windows(nominal.mutation_ms, kMutationWindow);
  rep.add("ok_frac",
          nominal.sent != 0 ? 1.0 - static_cast<double>(nominal.failed) /
                                        static_cast<double>(nominal.sent)
                            : 0,
          "fraction");
  rep.add("hull_s", hull_s, "s");
  rep.add("hull_t1_s", hull_t1_s, "s");
  rep.add_summary("write_p50_ms", "write_tail_ms", mutation, "ms");
  rep.add_summary("read_p50_ms", "read_tail_ms", probe, "ms");
  rep.add("rate_per_s", max_rate(rungs), "1/s");

  rep.add("parallel.speedup", hull_t1_s / hull_s, "x");
  rep.add("engine.batcher.requests_per_epoch", requests_per_epoch, "count");
  rep.add("durability.recovery.recover_s", recover_s, "s");
  rep.add("service.shed_frames", static_cast<double>(stats.shed_frames), "count");
  std::ostringstream os;
  os << "service_mix: highest passing rung=" << best << " ("
     << (best >= 0 ? rungs[static_cast<std::size_t>(best)].rate : 0)
     << "/s offered), max rate " << max_rate(rungs) << "/s, frames=" << stats.frames_total
     << " shed=" << stats.shed_frames << " unmatched replies=" << stray
     << " recovery of the crash image "
     << recover_s << " s";
  rep.note(os.str());
  rep.attempted += client_calls;
  if (opt.trace) {
    probe_layers(tenant_live, opt, rep);
    // Listener wait: the nominal probe round trip minus the time executing
    // a probe takes without the socket.
    rep.add("service.listener.wait_ms",
            probe.p50 - rep.value("service.commands.probe_us") / 1e3, "ms");
  }
  return 0;
}

}  // namespace perfbench
