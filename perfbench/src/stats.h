// Sample statistics shared by every workload: medians, the tail-percentile
// rule, and the open-loop rate-ladder rung selection.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample with at least p of all
// samples at or below it. p in (0, 1]. 0 for no samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(p * n + 0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

// A latency series reported as its median plus its tail: the highest
// nearest-rank percentile that still has kTailBeyond samples beyond it,
// i.e. sample n - 11 of the sorted series, percentile (n - 10) / n. With
// fewer than 2 * kTailBeyond + 1 samples that percentile would lie below
// the median; the tail is then the maximum and `tail_ok` is false.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;  // percentile of `tail`, as a fraction
  bool tail_ok = false;
  std::size_t windows = 1;  // see summarize_windows
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = percentile(v, 0.5);
  if (v.size() > 2 * kTailBeyond) {
    s.tail = v[v.size() - kTailBeyond - 1];
    s.tail_pct = static_cast<double>(v.size() - kTailBeyond) /
                 static_cast<double>(v.size());
    s.tail_ok = true;
  } else {
    s.tail = v.back();
    s.tail_pct = 1.0;
  }
  return s;
}

// A time-ordered series summarized for steadiness: the median over all
// samples, and as tail the median of the tails (by the rule above) of its
// consecutive windows of `window` samples (the last window takes the
// remainder; a series shorter than two windows is one window). A host
// stall then moves the tail of one window instead of the run's. The tail
// percentile is that of one full window, (window - 10) / window, or 100
// for windows of at most 2 * kTailBeyond samples, whose tail is their max.
inline Summary summarize_windows(const std::vector<double>& v,
                                 std::size_t window) {
  Summary s = summarize(v);
  const std::size_t w = window >= 2 ? v.size() / window : 0;
  if (w < 2) return s;
  std::vector<double> tails;
  for (std::size_t i = 0; i < w; ++i) {
    const auto lo = v.begin() + static_cast<std::ptrdiff_t>(i * window);
    const auto hi = i + 1 == w ? v.end() : lo + static_cast<std::ptrdiff_t>(window);
    tails.push_back(summarize(std::vector<double>(lo, hi)).tail);
  }
  s.tail = median(tails);
  s.tail_ok = window > 2 * kTailBeyond;
  s.tail_pct = s.tail_ok ? static_cast<double>(window - kTailBeyond) /
                               static_cast<double>(window)
                         : 1.0;
  s.windows = w;
  return s;
}

// One rung of the open-loop rate ladder.
struct Rung {
  double rate = 0;       // offered requests per second
  double delivered = 0;  // replies received per second of the rung
  bool pass = false;     // tails within limits, no failure, no backlog growth
  // Worst ratio of a measured figure to its limit (tail latency, backlog,
  // lateness); a passing rung has load <= 1.
  double load = 0;
};

// Index of the highest rung that passes (rungs ascending by rate), or -1
// when none does. The ladder runs on past a single miss (see
// service_mix.cpp), so one noisy rung below the knee does not cap the rate.
inline int select_max_rung(const std::vector<Rung>& rungs) {
  for (std::size_t i = rungs.size(); i-- > 0;) {
    if (rungs[i].pass) return static_cast<int>(i);
  }
  return -1;
}

// The highest rate that meets the limits: between the highest passing rung
// (select_max_rung) and the missed rung above it, where the limit ratio
// crosses 1 on a log-log line through the two rungs' (rate, load). The
// passing rung's rate when it is the last rung run; 0 when none passes.
inline double max_rate(const std::vector<Rung>& rungs) {
  const int best = select_max_rung(rungs);
  if (best < 0) return 0;
  const Rung& lo = rungs[static_cast<std::size_t>(best)];
  if (static_cast<std::size_t>(best) + 1 == rungs.size()) return lo.rate;
  const Rung& hi = rungs[static_cast<std::size_t>(best) + 1];
  const double lo_load = std::max(lo.load, 1e-3);
  const double hi_load = std::max(hi.load, 1.0 + 1e-9);
  const double t = std::clamp(std::log(1.0 / lo_load) / std::log(hi_load / lo_load), 0.0, 1.0);
  return lo.rate * std::pow(hi.rate / lo.rate, t);
}

}  // namespace perfbench
