#pragma once

// Pure measurement rules of the benchmark: tail percentiles that are backed
// by enough samples, top-K precision, the rate-ladder pass rule, and span
// self time. Kept
// free of the library so perfbench/tests/selftest.cpp can check them alone.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// 0-based nearest-rank index of percentile `p` (0..100) among `n` sorted
/// samples: the smallest index whose rank covers p% of the samples.
inline std::size_t rank_index(std::size_t n, double p) {
  if (n == 0) return 0;
  const double r = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t rank = r < 1.0 ? 1 : static_cast<std::size_t>(r);
  return std::min(rank, n) - 1;
}

/// A tail percentile that is backed by data: the requested percentile,
/// lowered until at least `min_beyond` samples lie strictly beyond it.
struct TailPick {
  bool ok = false;       // false: fewer than min_beyond + 1 samples
  std::size_t index = 0; // index into the ascending-sorted samples
  double pct = 0.0;      // percentile the index actually represents
};

inline TailPick tail_pick(std::size_t n, double target_pct,
                          std::size_t min_beyond = 10) {
  TailPick t;
  if (n < min_beyond + 1) return t;
  t.index = std::min(rank_index(n, target_pct), n - 1 - min_beyond);
  t.pct = 100.0 * static_cast<double>(t.index + 1) / static_cast<double>(n);
  t.ok = true;
  return t;
}

/// Value at the nearest-rank percentile of already sorted samples.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  return sorted.empty() ? 0.0 : sorted[rank_index(sorted.size(), p)];
}

inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over `windows` contiguous chunks (in arrival order) of a
/// per-chunk statistic: a burst of outside interference disturbs one chunk,
/// not the reported value.
template <typename F>
double window_median(const std::vector<double>& samples, std::size_t windows,
                     F&& stat) {
  const std::size_t n = samples.size();
  windows = std::max<std::size_t>(1, std::min(windows, n));
  std::vector<double> per;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> chunk(
        samples.begin() + static_cast<std::ptrdiff_t>(n * w / windows),
        samples.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows));
    std::sort(chunk.begin(), chunk.end());
    per.push_back(stat(chunk));
  }
  return median_of(per);
}

/// Precision@K of the row indices `got` against exact scores: the share of
/// K taken by returned rows whose exact score reaches the K-th best exact
/// score. Rows tied at that score all count, whichever of them a ranking
/// keeps; an index out of range never counts.
inline double precision_at_k(const std::vector<std::size_t>& got,
                             const std::vector<double>& exact, std::size_t k) {
  if (k == 0 || exact.empty()) return 0.0;
  k = std::min(k, exact.size());
  std::vector<double> desc = exact;
  std::nth_element(desc.begin(), desc.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   desc.end(), std::greater<>());
  const double kth = desc[k - 1];
  std::size_t hits = 0;
  for (std::size_t i : got) {
    if (i < exact.size() && exact[i] >= kth) ++hits;
  }
  return static_cast<double>(std::min(hits, k)) / static_cast<double>(k);
}

/// One step of the offered-rate ladder. Failed or refused requests enter
/// the latency samples as +inf, so they count as misses of the limit.
struct LadderStep {
  double offered_qps = 0.0;   // arrivals / (last due - first due)
  double achieved_qps = 0.0;  // arrivals / (last completion - first due)
  double p99_us = 0.0;        // with failures as +inf
  bool generator_late = false;  // the dispatcher could not keep pace
};

/// Completions may trail arrivals by at most this share before the step
/// counts as building a backlog.
inline constexpr double kMinAchievedShare = 0.95;

enum class StepVerdict { kPass, kFail, kGeneratorBound };

/// A step passes when its p99 stays within the latency limit and no
/// backlog grew: a system that keeps up completes the step's arrivals at
/// (nearly) the rate they came, while a growing queue drains them at its
/// lower service rate. A step the dispatcher could not offer on time
/// measures the generator, not the system, and ends the ladder without a
/// verdict on the system.
inline StepVerdict step_verdict(const LadderStep& s, double limit_us) {
  if (s.generator_late) return StepVerdict::kGeneratorBound;
  if (!(s.p99_us <= limit_us)) return StepVerdict::kFail;
  if (s.achieved_qps < kMinAchievedShare * s.offered_qps) {
    return StepVerdict::kFail;
  }
  return StepVerdict::kPass;
}

/// Index of the highest step that passes before the first step that does
/// not (steps in ascending offered rate); -1 when the first step fails.
inline int ladder_max_index(const std::vector<LadderStep>& steps,
                            double limit_us) {
  int best = -1;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (step_verdict(steps[i], limit_us) != StepVerdict::kPass) break;
    best = static_cast<int>(i);
  }
  return best;
}

/// A timed interval of the trace. `parent` indexes the enclosing span in
/// the same vector (-1 for a root); every span carries its root's id.
struct Span {
  std::uint64_t root = 0;
  std::int32_t parent = -1;
  std::uint16_t name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once; a child
/// sticking out of its parent is clipped to the parent).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

}  // namespace perfbench
