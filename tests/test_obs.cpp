#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

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

TEST(HistogramMerge, MergeEqualsRecordingEverythingInOne) {
  Histogram a, b, all;
  const std::vector<u64> va = {0, 1, 5, 9000, 1u << 20};
  const std::vector<u64> vb = {3, 3, 77, 1u << 30};
  for (const u64 v : va) {
    a.record(v);
    all.record(v);
  }
  for (const u64 v : vb) {
    b.record(v);
    all.record(v);
  }
  HistogramData merged = a.data();
  merged.merge(b.data());
  const HistogramData expect = all.data();
  EXPECT_EQ(merged.count, expect.count);
  EXPECT_EQ(merged.sum, expect.sum);
  EXPECT_EQ(merged.min, expect.min);
  EXPECT_EQ(merged.max, expect.max);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(merged.buckets[i], expect.buckets[i]) << "bucket " << i;
  }
}

TEST(HistogramMerge, EmptySidesAreIdentity) {
  Histogram h;
  h.record(42);
  h.record(7);
  const HistogramData d = h.data();

  HistogramData into_empty;  // empty.merge(d) == d
  into_empty.merge(d);
  EXPECT_EQ(into_empty.count, 2u);
  EXPECT_EQ(into_empty.min, 7u);
  EXPECT_EQ(into_empty.max, 42u);

  HistogramData from_empty = d;  // d.merge(empty) == d
  from_empty.merge(HistogramData{});
  EXPECT_EQ(from_empty.count, 2u);
  EXPECT_EQ(from_empty.min, 7u);
  EXPECT_EQ(from_empty.max, 42u);
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
  g.add(5);
  g.sub(2);
  EXPECT_EQ(g.value(), 103u);

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

TEST(Registry, SnapshotMergeFoldsAndInsertsByName) {
  Registry a, b;
  a.counter("shared.counter").add(3);
  b.counter("shared.counter").add(4);
  a.gauge("only.a").set(7);
  b.gauge("only.b").set(8);
  a.histogram("shared.hist").record(10);
  b.histogram("shared.hist").record(20);

  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.value("shared.counter"), 7u);
  EXPECT_EQ(merged.value("only.a"), 7u);
  EXPECT_EQ(merged.value("only.b"), 8u);
  ASSERT_NE(merged.find("shared.hist"), nullptr);
  EXPECT_EQ(merged.find("shared.hist")->hist.count, 2u);
  EXPECT_EQ(merged.find("shared.hist")->hist.min, 10u);
  EXPECT_EQ(merged.find("shared.hist")->hist.max, 20u);
  // Insertions keep name order.
  for (std::size_t i = 1; i < merged.metrics.size(); ++i) {
    EXPECT_LT(merged.metrics[i - 1].name, merged.metrics[i].name);
  }

  // Same name, different kind: the fold refuses instead of corrupting.
  Registry c;
  c.gauge("shared.counter").set(1);
  MetricsSnapshot bad = a.snapshot();
  EXPECT_THROW(bad.merge(c.snapshot()), std::logic_error);
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
  const std::string json = event_to_json(ev, 7);
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);
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
  t.write_chrome_trace(out, /*pid=*/0);
  const std::string doc = out.str();
  EXPECT_TRUE(is_valid_json(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"alpha\""), std::string::npos);
  EXPECT_NE(doc.find("\"beta\""), std::string::npos);
  t.disable();
}

TEST(Tracer, ShardMergeStitchesValidDocumentAndSkipsMissingShards) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "laec_obs_merge_test").string();
  fs::create_directories(dir);
  const std::string shard0 = dir + "/t.shard0.events";
  const std::string shard_missing = dir + "/t.shard1.events";
  const std::string out_path = dir + "/t.json";
  std::remove(shard_missing.c_str());

  Tracer& t = Tracer::global();
  t.enable();
  t.instant("from-shard");
  ASSERT_TRUE(write_shard_events_file(shard0, /*pid=*/1));
  t.disable();

  const std::vector<std::string> parent = {
      event_to_json({"from-parent", 'i', 1, 0, 0, {}}, 0)};
  ASSERT_TRUE(merge_trace_files({shard0, shard_missing}, parent, out_path));
  const std::string doc = slurp(out_path);
  EXPECT_TRUE(is_valid_json(doc)) << doc;
  EXPECT_NE(doc.find("from-shard"), std::string::npos);
  EXPECT_NE(doc.find("from-parent"), std::string::npos);
  std::remove(shard0.c_str());
  std::remove(out_path.c_str());
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
  s.queue_depth = 9;
  s.inflight_cells = 2;
  s.jobs_accepted = 5;
  s.jobs_rejected = 1;
  s.cells_done = 40;
  s.trials_done = 4000;
  s.rows_streamed = 40;
  s.per_worker = {{10, 1000}, {20, 2000}, {10, 1000}};
  s.metrics.push_back({"campaign.golden_runs",
                       static_cast<u8>(MetricKind::kCounter), 4, 0, 0, 0});
  s.metrics.push_back({"daemon.queue_wait_us",
                       static_cast<u8>(MetricKind::kHistogram), 17, 90210,
                       55, 780});

  const service::DaemonStatus d =
      service::decode_status(service::encode_status(s));
  EXPECT_EQ(d.uptime_ms, s.uptime_ms);
  EXPECT_EQ(d.workers, s.workers);
  EXPECT_EQ(d.queue_depth, s.queue_depth);
  EXPECT_EQ(d.inflight_cells, s.inflight_cells);
  EXPECT_EQ(d.jobs_accepted, s.jobs_accepted);
  EXPECT_EQ(d.jobs_rejected, s.jobs_rejected);
  EXPECT_EQ(d.cells_done, s.cells_done);
  EXPECT_EQ(d.trials_done, s.trials_done);
  EXPECT_EQ(d.rows_streamed, s.rows_streamed);
  ASSERT_EQ(d.per_worker.size(), 3u);
  EXPECT_EQ(d.per_worker[1].cells_done, 20u);
  EXPECT_EQ(d.per_worker[1].trials_done, 2000u);
  ASSERT_EQ(d.metrics.size(), 2u);
  EXPECT_EQ(d.metrics[0].name, "campaign.golden_runs");
  EXPECT_EQ(d.metrics[0].value, 4u);
  EXPECT_EQ(d.metrics[1].name, "daemon.queue_wait_us");
  EXPECT_EQ(d.metrics[1].sum, 90210u);
  EXPECT_EQ(d.metrics[1].p50, 55u);
  EXPECT_EQ(d.metrics[1].p99, 780u);
}

TEST(StatusProtocol, TruncatedPayloadThrows) {
  service::DaemonStatus s;
  s.per_worker = {{1, 2}};
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
  Tracer::global().write_chrome_trace(doc_out, 0);
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

}  // namespace
}  // namespace laec::obs
