#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "reliability/campaign.hpp"
#include "report/sink.hpp"
#include "service/protocol.hpp"
#include "service/wire.hpp"

namespace laec::obs {
namespace {

// ------------------------------------------------------ strict JSON parser --

/// Strict recursive-descent JSON validator (objects, arrays, strings with
/// full escape decoding, numbers, true/false/null), mirroring the JSONL
/// suite's discipline: any malformed byte fails the whole parse. The trace
/// tests lean on the strictness — a trace document that chrome://tracing
/// would reject must fail here first.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view s) : s_(s) {}

  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  std::string_view s_;
  std::size_t i_ = 0;

  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool literal(std::string_view lit) {
    if (s_.substr(i_, lit.size()) != lit) return false;
    i_ += lit.size();
    return true;
  }

  bool hex4() {
    for (int k = 0; k < 4; ++k) {
      if (i_ >= s_.size()) return false;
      const char c = s_[i_++];
      const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
                      (c >= 'A' && c <= 'F');
      if (!ok) return false;
    }
    return true;
  }

  bool string() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[i_]);
      if (c == '"') {
        ++i_;
        return true;
      }
      if (c < 0x20) return false;  // raw control char = malformed
      if (c == '\\') {
        if (++i_ >= s_.size()) return false;
        const char e = s_[i_++];
        if (e == 'u') {
          if (!hex4()) return false;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      } else {
        ++i_;
      }
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    if (i_ >= s_.size() || s_[i_] < '0' || s_[i_] > '9') return false;
    if (s_[i_] == '0') {
      ++i_;
    } else {
      while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    }
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      if (i_ >= s_.size() || s_[i_] < '0' || s_[i_] > '9') return false;
      while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (i_ >= s_.size() || s_[i_] < '0' || s_[i_] > '9') return false;
      while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    }
    return i_ > start;
  }

  bool object() {
    ++i_;  // consume '{'
    ws();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      ws();
      if (!value()) return false;
      ws();
      if (i_ >= s_.size()) return false;
      if (s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (s_[i_] == '}') {
        ++i_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++i_;  // consume '['
    ws();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    for (;;) {
      ws();
      if (!value()) return false;
      ws();
      if (i_ >= s_.size()) return false;
      if (s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (s_[i_] == ']') {
        ++i_;
        return true;
      }
      return false;
    }
  }

  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
};

bool is_valid_json(std::string_view s) { return JsonValidator(s).valid(); }

// --------------------------------------------------------------- histogram --

TEST(HistogramBuckets, Log2BucketIndexAndBounds) {
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  EXPECT_EQ(histogram_bucket(7), 3u);
  EXPECT_EQ(histogram_bucket(8), 4u);
  EXPECT_EQ(histogram_bucket(std::numeric_limits<u64>::max()), 64u);

  EXPECT_EQ(histogram_bucket_max(0), 0u);
  EXPECT_EQ(histogram_bucket_max(1), 1u);
  EXPECT_EQ(histogram_bucket_max(2), 3u);
  EXPECT_EQ(histogram_bucket_max(3), 7u);
  EXPECT_EQ(histogram_bucket_max(64), std::numeric_limits<u64>::max());

  // Every bucket's max lands back in that bucket; the next value starts
  // the next bucket.
  for (std::size_t b = 0; b < kHistogramBuckets - 1; ++b) {
    EXPECT_EQ(histogram_bucket(histogram_bucket_max(b)), b);
    EXPECT_EQ(histogram_bucket(histogram_bucket_max(b) + 1), b + 1);
  }
}

TEST(HistogramPercentile, EmptyHistogramIsZero) {
  HistogramData h;
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(1.0), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramPercentile, SingleSampleIsExactAtEveryQuantile) {
  Histogram h;
  h.record(1234);
  const HistogramData d = h.data();
  EXPECT_EQ(d.count, 1u);
  EXPECT_EQ(d.sum, 1234u);
  EXPECT_EQ(d.min, 1234u);
  EXPECT_EQ(d.max, 1234u);
  // One sample: every quantile clamps to [min, max] = {1234}.
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(d.percentile(q), 1234u) << "q=" << q;
  }
}

TEST(HistogramPercentile, ExactInSingleValueBucketsInterpolatedAbove) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(0);
  for (int i = 0; i < 10; ++i) h.record(1);
  const HistogramData d = h.data();
  // Buckets 0 and 1 span one value each, so percentiles there are exact.
  EXPECT_EQ(d.percentile(0.25), 0u);
  EXPECT_EQ(d.percentile(0.75), 1u);
  EXPECT_EQ(d.percentile(1.0), 1u);

  Histogram wide;
  wide.record(1000);
  wide.record(2000);
  const HistogramData w = wide.data();
  // Interpolation never leaves the observed range.
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_GE(w.percentile(q), 1000u);
    EXPECT_LE(w.percentile(q), 2000u);
  }
  EXPECT_EQ(w.percentile(1.0), 2000u);
}

// ---------------------------------------------------------------- registry --

TEST(Registry, CounterGaugeBasicsAndStableReferences) {
  Registry reg;
  Counter& c = reg.counter("test.counter");
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(&reg.counter("test.counter"), &c);

  Gauge& g = reg.gauge("test.gauge");
  g.set(100);
  EXPECT_EQ(g.value(), 100u);
  g.set(7);
  EXPECT_EQ(g.value(), 7u);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0u);
  // Names stay registered after reset.
  EXPECT_EQ(&reg.counter("test.counter"), &c);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  (void)reg.counter("metric.x");
  EXPECT_THROW((void)reg.gauge("metric.x"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("metric.x"), std::logic_error);
}

TEST(Registry, SnapshotIsNameOrdered) {
  Registry reg;
  reg.counter("zzz").add(1);
  reg.gauge("aaa").set(2);
  reg.histogram("mmm").record(3);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "aaa");
  EXPECT_EQ(snap.metrics[1].name, "mmm");
  EXPECT_EQ(snap.metrics[2].name, "zzz");
  EXPECT_EQ(snap.value("aaa"), 2u);
  EXPECT_EQ(snap.value("zzz"), 1u);
  EXPECT_EQ(snap.value("absent"), 0u);
  ASSERT_NE(snap.find("mmm"), nullptr);
  EXPECT_EQ(snap.find("mmm")->hist.count, 1u);
  EXPECT_EQ(snap.find("absent"), nullptr);
}

// ------------------------------------------------------------------ tracer --

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer& t = Tracer::global();
  t.disable();
  {
    Span span("should-not-appear");
    EXPECT_FALSE(span.live());
    span.arg("k", u64{1});  // no-ops, must not crash
  }
  t.instant("also-not");
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.total_recorded(), 0u);
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  Tracer& t = Tracer::global();
  t.enable(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    t.instant("ev" + std::to_string(i));
  }
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest first, events 0 and 1 overwritten.
  EXPECT_EQ(evs[0].name, "ev2");
  EXPECT_EQ(evs[3].name, "ev5");
  EXPECT_EQ(evs[0].phase, 'i');
  EXPECT_EQ(t.total_recorded(), 6u);
  EXPECT_EQ(t.dropped(), 2u);
  t.disable();
}

TEST(Tracer, SpanRecordsCompleteEventWithArgs) {
  Tracer& t = Tracer::global();
  t.enable();
  {
    Span span("unit-span");
    ASSERT_TRUE(span.live());
    span.arg("n", u64{42});
    span.arg("s", "hello");
    span.close();
    EXPECT_FALSE(span.live());
    span.close();  // idempotent: no double record
  }
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "unit-span");
  EXPECT_EQ(evs[0].phase, 'X');
  ASSERT_EQ(evs[0].args.size(), 2u);
  EXPECT_EQ(evs[0].args[0].key, "n");
  EXPECT_TRUE(evs[0].args[0].is_num);
  EXPECT_EQ(evs[0].args[0].num, 42u);
  EXPECT_EQ(evs[0].args[1].key, "s");
  EXPECT_FALSE(evs[0].args[1].is_num);
  EXPECT_EQ(evs[0].args[1].str, "hello");
  t.disable();
}

TEST(Tracer, EventJsonIsStrictlyValidEvenWithHostileStrings) {
  TraceEvent ev;
  ev.name = "quote\" backslash\\ control\x01\n tab\t";
  ev.phase = 'X';
  ev.ts_us = 12;
  ev.dur_us = 34;
  ev.tid = 2;
  ev.args.push_back({"arg \"key\"", "va\\lue\x02", 0, false});
  ev.args.push_back({"n", "", 99, true});
  const std::string json = event_to_json(ev);
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"pid\":0,\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Tracer, ChromeTraceDocumentIsValidJson) {
  Tracer& t = Tracer::global();
  t.enable();
  {
    Span s1("alpha");
    s1.arg("x", u64{1});
  }
  t.instant("beta", {{"why", "because", 0, false}});
  std::ostringstream out;
  t.write_chrome_trace(out);
  const std::string doc = out.str();
  EXPECT_TRUE(is_valid_json(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"alpha\""), std::string::npos);
  EXPECT_NE(doc.find("\"beta\""), std::string::npos);
  t.disable();
}

// --------------------------------------------------------------------- log --

TEST(Log, LevelParsingAndNames) {
  EXPECT_EQ(log_level_from_string("debug"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_string("info"), LogLevel::kInfo);
  EXPECT_EQ(log_level_from_string("warn"), LogLevel::kWarn);
  EXPECT_EQ(log_level_from_string("error"), LogLevel::kError);
  EXPECT_EQ(log_level_from_string("off"), LogLevel::kOff);
  EXPECT_FALSE(log_level_from_string("verbose").has_value());
  EXPECT_FALSE(log_level_from_string("").has_value());

  EXPECT_EQ(log_level_name(LogLevel::kDebug), "debug");
  EXPECT_EQ(log_level_name(LogLevel::kError), "error");
}

TEST(Log, ThresholdFiltering) {
  const LogLevel before = log_threshold();
  set_log_threshold(LogLevel::kWarn);
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kWarn));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  set_log_threshold(LogLevel::kOff);
  EXPECT_FALSE(log_enabled(LogLevel::kError));
  set_log_threshold(before);
}

// ---------------------------------------------------------- status protocol --

TEST(StatusProtocol, EncodeDecodeRoundTrip) {
  service::DaemonStatus s;
  s.uptime_ms = 123456;
  s.workers = 3;
  s.jobs_accepted = 5;
  s.jobs_rejected = 1;
  s.cells_done = 40;
  s.trials_done = 4000;
  s.rows_streamed = 40;
  s.metrics.push_back({"campaign.golden_runs",
                       static_cast<u8>(MetricKind::kCounter), 4, 0, 0, 0});
  s.metrics.push_back({"sweep.point_us",
                       static_cast<u8>(MetricKind::kHistogram), 17, 90210,
                       55, 780});

  const service::DaemonStatus d =
      service::decode_status(service::encode_status(s));
  EXPECT_EQ(d.uptime_ms, s.uptime_ms);
  EXPECT_EQ(d.workers, s.workers);
  EXPECT_EQ(d.jobs_accepted, s.jobs_accepted);
  EXPECT_EQ(d.jobs_rejected, s.jobs_rejected);
  EXPECT_EQ(d.cells_done, s.cells_done);
  EXPECT_EQ(d.trials_done, s.trials_done);
  EXPECT_EQ(d.rows_streamed, s.rows_streamed);
  ASSERT_EQ(d.metrics.size(), 2u);
  EXPECT_EQ(d.metrics[0].name, "campaign.golden_runs");
  EXPECT_EQ(d.metrics[0].value, 4u);
  EXPECT_EQ(d.metrics[1].name, "sweep.point_us");
  EXPECT_EQ(d.metrics[1].sum, 90210u);
  EXPECT_EQ(d.metrics[1].p50, 55u);
  EXPECT_EQ(d.metrics[1].p99, 780u);
  // The v3 layout: u64 uptime, u32 workers, five u64 counts and the u32
  // metric count.
  EXPECT_EQ(service::encode_status(service::DaemonStatus{}).size(), 56u);
}

TEST(StatusProtocol, TruncatedPayloadThrows) {
  service::DaemonStatus s;
  s.metrics.push_back({"campaign.golden_runs",
                       static_cast<u8>(MetricKind::kCounter), 4, 0, 0, 0});
  const std::string payload = service::encode_status(s);
  EXPECT_THROW((void)service::decode_status(
                   std::string_view(payload).substr(0, payload.size() - 3)),
               service::WireError);
}

// --------------------------------------------- rows are tracing-invariant --

/// The hard observability contract, end to end: an instrumented campaign
/// emits BYTE-identical rows with the flight recorder hot or cold, and the
/// hot run's trace is a valid Chrome document containing the expected span
/// types.
TEST(TracedCampaign, RowsAreByteIdenticalTracedOrNot) {
  const auto run_once = [] {
    reliability::CampaignGrid grid;
    grid.workloads({"a2time"})
        .schemes({"laec"})
        .rates({*reliability::tech_preset("28nm")});
    reliability::CampaignSpec spec;
    spec.trials = 6;
    spec.base.dl1_size_bytes = 2 * 1024;
    std::ostringstream out;
    report::CsvWriter sink(out);
    reliability::CampaignOptions opts;
    opts.sink = &sink;
    (void)run_campaign(grid, spec, opts);
    return out.str();
  };

  Tracer::global().disable();
  const std::string cold = run_once();

  Tracer::global().enable();
  const std::string hot = run_once();
  std::ostringstream doc_out;
  Tracer::global().write_chrome_trace(doc_out);
  Tracer::global().disable();

  EXPECT_EQ(hot, cold);
  EXPECT_FALSE(cold.empty());

  const std::string doc = doc_out.str();
  EXPECT_TRUE(is_valid_json(doc));
  for (const char* span : {"golden-run", "prune-plan", "campaign.round",
                           "trial", "snapshot-capture"}) {
    EXPECT_NE(doc.find(span), std::string::npos) << span;
  }
}

TEST(TracedCampaign, GoldenPassDealsSortedKeysToThePool) {
  // Two workloads x two timing classes (two placements). The cells arrive
  // out of key order (dealt as they come, the keys would land on workers
  // 1, 0, 0, 1 in key order); the golden pass deals the sorted keys to
  // workers 0, 1, 1, 0, and the caller is worker 0.
  reliability::CampaignGrid grid;
  grid.workloads({"puwmod", "a2time"})
      .schemes({"extra-stage", "laec"})
      .rates({*reliability::tech_preset("28nm")});
  reliability::CampaignSpec spec;
  spec.trials = 1;
  spec.base.dl1_size_bytes = 2 * 1024;
  reliability::CampaignOptions opts;
  opts.threads = 2;
  Tracer::global().enable();
  (void)run_campaign(grid, spec, opts);
  const std::vector<TraceEvent> evs = Tracer::global().events();
  Tracer::global().disable();

  std::map<std::pair<std::string, std::string>, u32> tid_of;
  for (const TraceEvent& e : evs) {
    if (e.name != "golden-run") continue;
    std::string workload, timing_class;
    for (const TraceArg& a : e.args) {
      if (a.key == "workload") workload = a.str;
      if (a.key == "class") timing_class = a.str;
    }
    tid_of[{workload, timing_class}] = e.tid;
  }
  ASSERT_EQ(tid_of.size(), 4u);
  std::vector<u32> tids;  // in key order
  for (const auto& kv : tid_of) tids.push_back(kv.second);
  EXPECT_EQ(tids[0], trace_thread_id());
  EXPECT_EQ(tids[3], tids[0]);
  EXPECT_NE(tids[1], tids[0]);
  EXPECT_EQ(tids[2], tids[1]);
}

/// The event's argument named `key`, or null.
const TraceArg* find_arg(const TraceEvent& e, std::string_view key) {
  for (const TraceArg& a : e.args) {
    if (a.key == key) return &a;
  }
  return nullptr;
}

/// A trial span's fast-forward ordinal; -1 when it ran from reset.
i64 ff_ordinal_of(const TraceEvent& e) {
  const TraceArg* a = find_arg(e, "ff_ordinal");
  return a == nullptr ? -1 : static_cast<i64>(a->num);
}

/// Longest suffix first: every from-reset trial before any resumed one,
/// then each golden's snapshots in ascending order. A golden's ordinals
/// ascend with its cycles; the trace carries no cycle to order two
/// goldens' snapshots against each other.
bool longest_suffix_first(const std::vector<const TraceEvent*>& trials) {
  bool resumed = false;
  std::map<std::string, i64> last;  // per workload (one golden each)
  for (const TraceEvent* e : trials) {
    const i64 ord = ff_ordinal_of(*e);
    if (ord < 0) {
      if (resumed) return false;
      continue;
    }
    resumed = true;
    const auto [it, fresh] =
        last.try_emplace(find_arg(*e, "workload")->str, ord);
    if (!fresh && ord < it->second) return false;
    it->second = ord;
  }
  return true;
}

TEST(TracedCampaign, RoundHandsLongestSuffixFirst) {
  // Saturated point: most trials simulate, from snapshots at many
  // different ordinals. One thread runs the trials in hand-off order and
  // its spans close in that order, so the ring holds them as handed off;
  // each pass's trials precede its campaign.round span. A pass hands its
  // rounds off in order, each round's longest suffix first. With the
  // stopping rule off, one pass holds both rounds; with it armed (at a
  // width no cell reaches), each round is its own pass.
  const std::vector<std::string> workloads = {"puwmod", "iirflt"};
  reliability::CampaignGrid grid;
  grid.workloads(workloads)
      .schemes({"laec"})
      .rates({*reliability::tech_preset("28nm")});
  reliability::CampaignSpec spec;
  spec.accel = 1e16;
  spec.trials = 24;
  spec.batch = 12;
  spec.min_trials = 12;
  spec.base.dl1_size_bytes = 2 * 1024;
  reliability::CampaignOptions opts;
  opts.threads = 1;
  const auto round_of = [&](const TraceEvent* e) {
    return find_arg(*e, "replicate")->num / spec.batch;
  };
  for (const double half_width : {0.0, 1e-9}) {
    spec.target_half_width = half_width;
    Tracer::global().enable();
    (void)run_campaign(grid, spec, opts);
    const std::vector<TraceEvent> evs = Tracer::global().events();
    Tracer::global().disable();

    std::vector<std::vector<const TraceEvent*>> passes(1);
    for (const TraceEvent& e : evs) {
      if (e.name == "trial") passes.back().push_back(&e);
      if (e.name == "campaign.round") passes.emplace_back();
    }
    std::size_t trials = 0;
    bool listed_in_order = true;
    for (const auto& pass : passes) {
      trials += pass.size();
      EXPECT_TRUE(std::is_sorted(pass.begin(), pass.end(),
                                 [&](const TraceEvent* a, const TraceEvent* b) {
                                   return round_of(a) < round_of(b);
                                 }))
          << half_width;
      std::map<u64, std::vector<const TraceEvent*>> rounds;
      for (const TraceEvent* e : pass) rounds[round_of(e)].push_back(e);
      for (auto& [r, round] : rounds) {
        EXPECT_TRUE(longest_suffix_first(round)) << half_width << " " << r;
        // The order the round listed its trials in: cell-major, then
        // replicate.
        const auto trial_key = [&](const TraceEvent* e) {
          const auto cell = std::find(workloads.begin(), workloads.end(),
                                      find_arg(*e, "workload")->str);
          return std::make_pair(cell, find_arg(*e, "replicate")->num);
        };
        std::sort(round.begin(), round.end(),
                  [&](const TraceEvent* a, const TraceEvent* b) {
                    return trial_key(a) < trial_key(b);
                  });
        listed_in_order = listed_in_order && longest_suffix_first(round);
      }
    }
    EXPECT_EQ(std::count_if(passes.begin(), passes.end(),
                            [](const auto& r) { return !r.empty(); }),
              half_width > 0.0 ? 2 : 1);
    EXPECT_GE(trials, 24u) << half_width;
    // Precondition: the listing order alone would not have passed.
    EXPECT_FALSE(listed_in_order) << half_width;
  }
}

TEST(TracedCampaign, PassStopsTakingRoundsAt2048Trials) {
  // With the stopping rule off a pass plans rounds until it holds 2048
  // trials, so a long campaign holds a bounded share of its storms and
  // points at a time. Rounds of 1500: two rounds a pass, then an empty
  // pass that ends the campaign.
  reliability::CampaignGrid grid;
  grid.workloads({"rspeed"})
      .schemes({"laec"})
      .rates({*reliability::tech_preset("28nm")});
  reliability::CampaignSpec spec;
  spec.trials = 6000;
  spec.batch = 1500;
  spec.base.dl1_size_bytes = 2 * 1024;
  reliability::CampaignOptions opts;
  opts.threads = 2;
  unsigned folds = 0;
  opts.on_round = [&](const std::vector<reliability::CellProgress>&) {
    ++folds;
  };
  Tracer::global().enable();
  const auto sum = run_campaign(grid, spec, opts);
  const std::vector<TraceEvent> evs = Tracer::global().events();
  Tracer::global().disable();
  EXPECT_EQ(sum.trials_run, 6000u);
  EXPECT_EQ(folds, 4u);
  std::vector<u64> planned;
  for (const TraceEvent& e : evs) {
    if (e.name == "prune-plan") planned.push_back(find_arg(e, "trials")->num);
  }
  EXPECT_EQ(planned, (std::vector<u64>{3000, 3000, 0}));
}

/// What one runaway-prone campaign left behind: its rows, the overrun
/// counter's increment, its trial-overrun instants and its warnings.
struct RunawayRun {
  std::string csv;
  u64 overruns = 0;
  std::vector<TraceEvent> instants;
  std::string log_text;
};

/// rspeed x dec-bch-45-32 with adjacent doubles striking the L1I: an
/// undetected double in its parity array can send the kernel into a loop,
/// and the cycle cap then ends the trial far past twice its golden run.
RunawayRun run_runaway_campaign(unsigned trials, double accel, bool hot) {
  reliability::MbuPatternTable adj2;
  adj2.single = 0.0;
  adj2.adjacent_double = 1.0;
  reliability::CampaignGrid grid;
  grid.workloads({"rspeed"})
      .schemes({"dec-bch-45-32"})
      .rates({{"1000", 1000.0, adj2}});
  reliability::CampaignSpec spec;
  spec.accel = accel;
  spec.trials = trials;
  spec.target = core::InjectTarget::kL1i;
  spec.base.dl1_size_bytes = 2 * 1024;
  spec.base.max_cycles = 300'000;
  std::ostringstream out;
  report::CsvWriter sink(out);
  reliability::CampaignOptions opts;
  opts.threads = 2;
  opts.sink = &sink;
  Counter& overruns =
      Registry::global().counter("campaign.trials_over_2x_golden");
  const u64 before = overruns.value();
  const LogLevel threshold = log_threshold();
  set_log_threshold(hot ? LogLevel::kWarn : LogLevel::kOff);
  if (hot) Tracer::global().enable();
  testing::internal::CaptureStderr();
  (void)run_campaign(grid, spec, opts);
  RunawayRun r;
  r.log_text = testing::internal::GetCapturedStderr();
  for (TraceEvent& e : Tracer::global().events()) {
    if (e.name == "trial-overrun") r.instants.push_back(std::move(e));
  }
  Tracer::global().disable();
  set_log_threshold(threshold);
  r.csv = out.str();
  r.overruns = overruns.value() - before;
  return r;
}

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

TEST(TracedCampaign, RunawayTrialIsCountedTracedAndWarnedOnce) {
  const RunawayRun hot = run_runaway_campaign(6, 3e15, true);
  EXPECT_EQ(hot.overruns, 1u);
  ASSERT_EQ(hot.instants.size(), 1u);
  const TraceEvent& e = hot.instants.front();
  EXPECT_EQ(e.phase, 'i');
  EXPECT_EQ(find_arg(e, "workload")->str, "rspeed");
  EXPECT_EQ(find_arg(e, "scheme")->str, "dec-bch-45-32");
  ASSERT_NE(find_arg(e, "replicate"), nullptr);
  EXPECT_LT(find_arg(e, "replicate")->num, 6u);
  EXPECT_EQ(find_arg(e, "cycles")->num, 300'000u);  // stopped at the cap
  EXPECT_GT(find_arg(e, "cycles")->num, 2 * find_arg(e, "golden_cycles")->num);
  EXPECT_EQ(count_lines(hot.log_text), 1u) << hot.log_text;
  EXPECT_NE(hot.log_text.find("warn"), std::string::npos);
  EXPECT_NE(hot.log_text.find("rspeed"), std::string::npos);
  // Rows do not change with the tracer and the warning on.
  const RunawayRun cold = run_runaway_campaign(6, 3e15, false);
  EXPECT_EQ(cold.csv, hot.csv);
  EXPECT_EQ(cold.overruns, 1u);
  EXPECT_TRUE(cold.log_text.empty());

  // Two runaways in one cell: both counted and traced, one warning.
  const RunawayRun twice = run_runaway_campaign(48, 1e16, true);
  EXPECT_EQ(twice.overruns, 2u);
  EXPECT_EQ(twice.instants.size(), 2u);
  EXPECT_EQ(count_lines(twice.log_text), 1u) << twice.log_text;
}

}  // namespace
}  // namespace laec::obs
