// Self-test of the benchmark's measurement rules (perfbench/src/measure.hpp):
// the tail percentile backed by >= 10 samples, top-K precision, the
// rate-ladder pass rule, and span self time. Exits 0 when every check holds; run.py runs it before
// every benchmark run.

#include <cstdio>
#include <vector>

#include "measure.hpp"
#include "trace.hpp"

namespace pb = perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void test_tail_pick() {
  // 1000 samples: p99 is index 989 and has exactly 10 samples beyond it.
  auto t = pb::tail_pick(1000, 99.0);
  check(t.ok && t.index == 989, "p99 of 1000 is index 989");
  check(t.pct == 99.0, "p99 of 1000 keeps its percentile");
  // 500 samples: p99 (index 494) has only 5 beyond; lowered to index 489,
  // the highest index with 10 beyond, which is p98.
  t = pb::tail_pick(500, 99.0);
  check(t.ok && t.index == 489 && 500 - 1 - t.index == 10,
        "p99 of 500 is lowered to 10 beyond");
  check(t.pct == 98.0, "p99 of 500 reports p98");
  // 140 top-K queries: p90 (index 125) has 14 beyond; kept.
  t = pb::tail_pick(140, 90.0);
  check(t.ok && t.index == 125, "p90 of 140 is index 125");
  // 60 queries: p90 (index 53) has 6 beyond; lowered to index 49.
  t = pb::tail_pick(60, 90.0);
  check(t.ok && t.index == 49 && 60 - 1 - t.index == 10, "p90 of 60 lowered");
  // Too few samples for any tail with 10 beyond.
  check(!pb::tail_pick(10, 90.0).ok, "10 samples have no tail");
  check(pb::tail_pick(11, 90.0).ok && pb::tail_pick(11, 90.0).index == 0,
        "11 samples: the minimum has 10 beyond");
  // Nearest rank.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(pb::percentile_sorted(v, 50.0) == 50.0, "p50 of 1..100 is 50");
  check(pb::percentile_sorted(v, 99.0) == 99.0, "p99 of 1..100 is 99");
  check(pb::median_of({3.0, 1.0, 2.0, 10.0}) == 2.5, "even-count median");
  // One disturbed window of three does not move the windowed median.
  const std::vector<double> w{1, 2, 3, 1, 2, 3, 100, 200, 300};
  auto p50 = [](const std::vector<double>& c) {
    return pb::percentile_sorted(c, 50.0);
  };
  check(pb::window_median(w, 3, p50) == 2.0, "windowed median ignores a burst");
}

pb::LadderStep step(double qps, double p99, double achieved_share,
                    bool late = false) {
  pb::LadderStep s;
  s.offered_qps = qps;
  s.achieved_qps = qps * achieved_share;
  s.p99_us = p99;
  s.generator_late = late;
  return s;
}

void test_ladder() {
  const double limit = 1000.0;  // 1 ms
  check(pb::step_verdict(step(1000, 900, 1.0), limit) == pb::StepVerdict::kPass,
        "within limit passes");
  check(pb::step_verdict(step(1000, 1100, 1.0), limit) == pb::StepVerdict::kFail,
        "over limit fails");
  check(pb::step_verdict(step(1000, pb::kInf, 1.0), limit) ==
            pb::StepVerdict::kFail,
        "a failed request (+inf) fails the step");
  check(pb::step_verdict(step(10000, 500, 0.96), limit) ==
            pb::StepVerdict::kPass,
        "completions keeping pace pass");
  check(pb::step_verdict(step(10000, 500, 0.94), limit) ==
            pb::StepVerdict::kFail,
        "a growing backlog fails even when p99 is within limit");
  check(pb::step_verdict(step(10000, 500, 1.0, true), limit) ==
            pb::StepVerdict::kGeneratorBound,
        "a late generator is no verdict on the system");

  // The maximum is the last pass before the first non-pass; a later pass
  // (noise after a failure) does not count.
  std::vector<pb::LadderStep> steps{step(1000, 100, 1), step(2000, 200, 1),
                                    step(3000, 2000, 1), step(4000, 300, 1)};
  check(pb::ladder_max_index(steps, limit) == 1, "max is before first failure");
  steps = {step(1000, 5000, 1), step(2000, 100, 1)};
  check(pb::ladder_max_index(steps, limit) == -1, "lowest rung failing is -1");
  steps = {step(1000, 100, 1), step(2000, 100, 1, true)};
  check(pb::ladder_max_index(steps, limit) == 0,
        "a generator-bound step ends the ladder");
}

void test_precision() {
  const std::vector<double> exact{0.1, 0.9, 0.5, 0.7, 0.3};
  // Exact top-2 is {1, 3}.
  check(pb::precision_at_k({1, 3}, exact, 2) == 1.0, "exact top-2 is 1.0");
  check(pb::precision_at_k({3, 2}, exact, 2) == 0.5, "one of two is 0.5");
  check(pb::precision_at_k({0, 4}, exact, 2) == 0.0, "none of two is 0.0");
  check(pb::precision_at_k({1, 9}, exact, 2) == 0.5, "out of range never counts");
  // Ties at the K-th score: either tied row counts.
  const std::vector<double> tied{0.9, 0.5, 0.5, 0.1};
  check(pb::precision_at_k({0, 2}, tied, 2) == 1.0, "a tied row counts");
  check(pb::precision_at_k({0, 1, 2}, tied, 2) == 1.0, "capped at K");
}

void test_self_time() {
  // root [0,100] with children [10,30] and [20,50] (overlap counted once)
  // and [90,120] (clipped to 90..100): covered 40 + 10 = 50, self 50.
  std::vector<pb::Span> s{{1, -1, 0, 0, 100},
                          {1, 0, 1, 10, 30},
                          {1, 0, 1, 20, 50},
                          {1, 0, 1, 90, 120},
                          {1, 1, 2, 12, 18}};
  const auto self = pb::self_times(s);
  check(self[0] == 50, "root self time subtracts the union of its children");
  check(self[1] == 14, "a child's self time subtracts its own child");
  check(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaves keep it all");

  pb::Trace tr;
  const auto root = tr.new_root();
  const auto r = tr.add(root, -1, "request", 0, 60'000);
  tr.add(root, r, "serving.submit", 0, 2'000);
  tr.add(root, r, "serving.submit", 1'000, 5'000);
  check(tr.median_us("request") == 60.0, "trace duration in us");
  check(tr.median_us("request", true) == 55.0, "trace self time in us");
  check(tr.durations_us("serving.submit").size() == 2, "spans by name");
}

}  // namespace

int main() {
  test_tail_pick();
  test_precision();
  test_ladder();
  test_self_time();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
