// Self-test of the benchmark's own arithmetic (ledger.hpp): nested-span
// self time, percentiles on small samples and the digest comparison. run.py
// runs it before every measurement; a failure stops the benchmark.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

laec::obs::TraceEvent span(const char* name, unsigned tid, unsigned ts,
                           unsigned dur) {
  laec::obs::TraceEvent e;
  e.name = name;
  e.tid = tid;
  e.ts_us = ts;
  e.dur_us = dur;
  return e;
}

void self_time() {
  using perfbench::self_times_us;
  // Recorded in close order, as the tracer does: children before parents.
  // round [0,100) > plan [0,60) > golden [10,50) > captures [20,25), [30,40)
  // plus a trial on another thread overlapping the round, and an instant.
  std::vector<laec::obs::TraceEvent> evs = {
      span("capture", 1, 20, 5),  span("capture", 1, 30, 10),
      span("golden", 1, 10, 40),  span("plan", 1, 0, 60),
      span("trial", 2, 60, 30),   span("round", 1, 0, 100),
  };
  laec::obs::TraceEvent inst;
  inst.phase = 'i';
  inst.tid = 1;
  inst.ts_us = 15;
  evs.push_back(inst);
  const auto self = self_times_us(evs);
  check(self[0] == 5 && self[1] == 10, "leaf spans keep their duration");
  check(self[2] == 25, "golden self = 40 - 15 of captures");
  check(self[3] == 20, "plan self = 60 - 40 of golden");
  check(self[4] == 30, "another thread's span never nests");
  check(self[5] == 40, "round self = 100 - 60 of plan");
  check(self[6] == 0, "instants have no self time");

  // Equal intervals nest by record order; back-to-back siblings do not nest.
  const auto same = self_times_us(
      {span("inner", 1, 5, 10), span("outer", 1, 5, 10), span("next", 1, 15, 3)});
  check(same[0] == 10 && same[1] == 0 && same[2] == 3,
        "identical intervals: the later-recorded span is the parent");
  const auto siblings = self_times_us(
      {span("a", 1, 10, 10), span("b", 1, 20, 10), span("parent", 1, 0, 100)});
  check(siblings[2] == 80, "a child starting at its sibling's end is the parent's");

  // A child reaching past its parent's end covers only the overlap, and
  // self time never goes negative.
  const auto clip =
      self_times_us({span("child", 1, 8, 10), span("parent", 1, 0, 12)});
  check(clip[1] == 8, "child coverage is clipped to the parent");
  check(self_times_us({}).empty(), "empty input");
}

void percentiles() {
  using perfbench::percentile;
  check(percentile({}, 0.5) == 0.0, "empty sample");
  check(percentile({7.0}, 0.0) == 7.0 && percentile({7.0}, 0.9) == 7.0,
        "single value");
  check(near(percentile({1.0, 2.0}, 0.5), 1.5), "two values interpolate");
  check(near(percentile({4.0, 1.0, 3.0, 2.0}, 0.25), 1.75), "q1 of four");
  check(near(percentile({4.0, 1.0, 3.0, 2.0}, 0.75), 3.25), "q3 of four");
  check(near(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9), 4.6), "p90 of five");
  check(percentile({3.0, 1.0, 2.0}, 1.0) == 3.0, "q = 1 is the maximum");
  check(near(perfbench::median({5.0, 1.0, 3.0}), 3.0), "odd median");
}

void digests() {
  using perfbench::count_mismatches;
  using perfbench::digest;
  check(digest("") == "cbf29ce484222325", "FNV-1a 64 offset basis");
  check(digest("a") == "af63dc4c8601ec8c", "FNV-1a 64 of \"a\"");
  check(digest("a,b\n1,2\n") != digest("a,b\n1,3\n"), "one byte changes it");
  check(perfbench::row_digest("h\nb\na\n") == perfbench::row_digest("h\na\nb\n"),
        "row order does not matter");
  check(perfbench::row_digest("h\na\nb\n") != perfbench::row_digest("a\nh\nb\n"),
        "the header stays first");
  check(perfbench::row_digest("h\na\nb\n") != perfbench::row_digest("h\na\nc\n"),
        "row contents matter");
  check(perfbench::row_digest("h\na") == perfbench::row_digest("h\na\n"),
        "a missing final newline does not matter");
  const std::string ref = digest("rows");
  check(count_mismatches({ref, ref, ref}, ref) == 0, "all equal");
  check(count_mismatches({ref, digest("other"), ref, ""}, ref) == 2,
        "mismatches and missing digests both count");
}

}  // namespace

int main() {
  self_time();
  percentiles();
  digests();
  if (failures == 0) std::printf("perfbench selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
