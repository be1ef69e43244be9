// Self-test of the benchmark's own helpers: the tail-percentile rule, the
// rate-ladder rung selection, and reply correlation by JSON id. Exits
// non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "client.h"
#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentiles() {
  check(percentile(one_to(4), 0.5) == 2, "nearest-rank median of 1..4 is 2");
  check(percentile(one_to(5), 0.5) == 3, "nearest-rank median of 1..5 is 3");
  check(percentile(one_to(100), 0.99) == 99, "p99 of 1..100 is 99");
  check(percentile(one_to(100), 1.0) == 100, "p100 is the maximum");
  check(percentile({}, 0.5) == 0, "no samples gives 0");

  // The tail has exactly ten samples beyond it.
  const Summary s1000 = summarize(one_to(1000));
  check(s1000.tail == 990 && s1000.tail_pct == 0.99 && s1000.tail_ok,
        "tail of 1..1000 is p99 = 990");
  check(s1000.p50 == 500, "median of 1..1000 is 500");
  const Summary s21 = summarize(one_to(21));
  check(s21.tail == 11 && s21.tail_ok && s21.tail == s21.p50,
        "21 samples: the tail percentile reaches down to the median");
  const Summary s20 = summarize(one_to(20));
  check(!s20.tail_ok && s20.tail == 20,
        "20 samples: no percentile at or above the median qualifies");
  const Summary s200 = summarize(one_to(200));
  check(s200.tail == 190 && s200.tail_pct == 0.95, "tail of 1..200 is p95");
  const Summary s10 = summarize(one_to(10));
  check(!s10.tail_ok && s10.tail == 10 && s10.tail_pct == 1.0,
        "ten samples: the tail falls back to the max");
  // Windowed tails: the median of the per-window tails.
  std::vector<double> series;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) series.push_back(i + (w == 2 ? 1000 : 0));
  }
  const Summary win = summarize_windows(series, 100);
  check(win.windows == 5 && win.tail == 90 && win.tail_pct == 0.9,
        "one stalled window does not move the windowed tail");
  check(summarize_windows(one_to(150), 100).windows == 1,
        "a series shorter than two windows is one window");
  // Short windows: each window's tail is its max.
  const Summary short_win =
      summarize_windows({5, 9, 7, 6, 40, 8, 5, 7, 8, 6}, 3);
  check(short_win.windows == 3 && short_win.tail == 9 &&
            short_win.tail_pct == 1.0 && !short_win.tail_ok,
        "windows of 3: the median of the window maxima 9, 40, 8");
  const Summary s0 = summarize({});
  check(s0.n == 0 && s0.p50 == 0 && !s0.tail_ok, "empty series");
}

void test_rung_selection() {
  auto ladder = [](std::vector<bool> pass) {
    std::vector<Rung> r;
    for (std::size_t i = 0; i < pass.size(); ++i) {
      r.push_back({10.0 * static_cast<double>(i + 1), 0, pass[i]});
    }
    return r;
  };
  check(select_max_rung(ladder({true, true, false, false})) == 1,
        "highest passing rung below the misses");
  check(select_max_rung(ladder({true, true, true})) == 2, "every rung passes");
  check(select_max_rung(ladder({false, false})) == -1, "no rung passes");
  check(select_max_rung(ladder({true, false, true, false, false})) == 2,
        "a single noisy miss below the knee does not cap the rate");
  check(select_max_rung({}) == -1, "empty ladder");

  // Max rate: log-log interpolation of the limit ratio between the highest
  // passing rung and the one above it.
  std::vector<Rung> r = {{100, 100, true, 0.25}, {200, 199, true, 0.5},
                         {400, 380, false, 2.0}};
  check(std::abs(max_rate(r) - 282.842712474619) < 1e-6,
        "load 0.5 at 200/s and 2.0 at 400/s cross 1 at 200*sqrt(2)");
  r[2] = {400, 400, true, 0.9};
  check(max_rate(r) == 400, "every rung passes: the top rung's rate");
  for (Rung& x : r) x.pass = false;
  check(max_rate(r) == 0, "no passing rung: 0");
}

void test_reply_correlation() {
  struct Info {
    int verb;
  };
  ReplyTracker<Info> tracker;
  tracker.add(7, {1});
  tracker.add(8, {2});
  tracker.add(9, {3});
  // Replies arrive out of order: a shed reply (9) overtakes 7 and 8.
  const char* lines[] = {
      R"({"id":9,"status":"overloaded","reply":"overloaded: server command queue is full; retry later\n"})",
      R"({"id":7,"status":"ok","epoch":3,"first_id":12,"count":1,"reply":"ok\n"})",
      R"({"id":8,"status":"ok","reply":"inside\n"})",
  };
  const int expect_verb[] = {3, 1, 2};
  const char* expect_status[] = {"overloaded", "ok", "ok"};
  for (int i = 0; i < 3; ++i) {
    Reply r;
    check(parse_reply(lines[i], r), "reply parses");
    check(r.id.has_value(), "reply carries its id");
    const auto info = tracker.take(*r.id);
    check(info.has_value() && info->verb == expect_verb[i],
          "reply matched to its own request");
    check(r.status == expect_status[i], "status parsed");
    if (i == 1) {
      check(r.uint_field("first_id", 0) == 12, "numeric field parsed");
      check(r.uint_field("absent", 5) == 5, "absent field falls back");
    }
  }
  check(tracker.size() == 0, "every request answered");
  check(!tracker.take(7).has_value(), "a duplicate reply matches nothing");
  Reply bad;
  check(!parse_reply("not json", bad), "garbage is rejected");
  Reply noid;
  check(parse_reply(R"({"status":"ok","reply":""})", noid) && !noid.id,
        "a reply without an id parses but matches nothing");
  tracker.add(10, {4});
  check(tracker.drain().size() == 1 && tracker.size() == 0,
        "drain returns the unanswered requests");
  const std::string req = json_request(42, "t1", "query 1 2 \"3\"");
  check(req == "{\"id\":42,\"tenant\":\"t1\",\"cmd\":\"query 1 2 \\\"3\\\"\"}\n",
        "request frame escapes its command");
}

}  // namespace

int main() {
  test_percentiles();
  test_rung_selection();
  test_reply_correlation();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
