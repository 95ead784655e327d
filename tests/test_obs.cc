/**
 * @file
 * Unit tests for the observability subsystem: counters, histograms,
 * the metrics registry, scoped spans, Chrome-trace export, env
 * activation, and the shared peak-KV-utilization definition.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "comet/kvcache/kv_cache.h"
#include "comet/obs/metrics.h"
#include "comet/obs/obs.h"
#include "comet/obs/trace_session.h"
#include "comet/runtime/thread_pool.h"
#include "comet/serve/batch_scheduler.h"
#include "comet/server/loadgen.h"
#include "trace_run.h"

namespace comet {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (no external deps): validates the whole
// exported trace parses, not just that a few substrings appear.

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text)
        : p_(text.c_str()), end_(text.c_str() + text.size())
    {
    }

    bool
    valid()
    {
        skipWs();
        if (!parseValue())
            return false;
        skipWs();
        return p_ == end_;
    }

  private:
    void
    skipWs()
    {
        while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' ||
                             *p_ == '\n' || *p_ == '\r'))
            ++p_;
    }

    bool
    parseValue()
    {
        if (p_ >= end_)
            return false;
        switch (*p_) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return parseString();
          case 't': return parseLiteral("true");
          case 'f': return parseLiteral("false");
          case 'n': return parseLiteral("null");
          default: return parseNumber();
        }
    }

    bool
    parseObject()
    {
        ++p_; // '{'
        skipWs();
        if (p_ < end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        while (true) {
            skipWs();
            if (!parseString())
                return false;
            skipWs();
            if (p_ >= end_ || *p_ != ':')
                return false;
            ++p_;
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (p_ < end_ && *p_ == ',') {
                ++p_;
                continue;
            }
            break;
        }
        if (p_ >= end_ || *p_ != '}')
            return false;
        ++p_;
        return true;
    }

    bool
    parseArray()
    {
        ++p_; // '['
        skipWs();
        if (p_ < end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        while (true) {
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (p_ < end_ && *p_ == ',') {
                ++p_;
                continue;
            }
            break;
        }
        if (p_ >= end_ || *p_ != ']')
            return false;
        ++p_;
        return true;
    }

    bool
    parseString()
    {
        if (p_ >= end_ || *p_ != '"')
            return false;
        ++p_;
        while (p_ < end_ && *p_ != '"') {
            if (*p_ == '\\') {
                ++p_;
                if (p_ >= end_)
                    return false;
            }
            ++p_;
        }
        if (p_ >= end_)
            return false;
        ++p_; // closing quote
        return true;
    }

    bool
    parseNumber()
    {
        const char *start = p_;
        if (p_ < end_ && (*p_ == '-' || *p_ == '+'))
            ++p_;
        bool digits = false;
        while (p_ < end_ &&
               ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                *p_ == 'e' || *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
            if (*p_ >= '0' && *p_ <= '9')
                digits = true;
            ++p_;
        }
        return digits && p_ > start;
    }

    bool
    parseLiteral(const char *literal)
    {
        const size_t len = std::strlen(literal);
        if (static_cast<size_t>(end_ - p_) < len ||
            std::strncmp(p_, literal, len) != 0)
            return false;
        p_ += len;
        return true;
    }

    const char *p_;
    const char *end_;
};

/** Quiesce the global session so a test starts from a clean slate. */
void
resetSession()
{
    obs::TraceSession::global().stop();
    obs::TraceSession::global().drain();
}

int
countSpans(const std::vector<obs::SpanRecord> &spans, const char *name)
{
    int count = 0;
    for (const obs::SpanRecord &span : spans) {
        if (std::strcmp(span.name, name) == 0)
            ++count;
    }
    return count;
}

// ---------------------------------------------------------------------------
// Counters and histograms

TEST(ObsCounter, AddAndValue)
{
    obs::Counter counter;
    EXPECT_EQ(counter.value(), 0);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42);
    counter.reset();
    EXPECT_EQ(counter.value(), 0);
}

TEST(ObsHistogram, BucketAssignment)
{
    obs::Histogram histogram({1.0, 10.0});
    ASSERT_EQ(histogram.numBuckets(), 3u); // two bounds + overflow
    histogram.observe(0.5);  // <= 1.0
    histogram.observe(1.0);  // boundary lands in the first bucket
    histogram.observe(5.0);  // <= 10.0
    histogram.observe(99.0); // overflow
    EXPECT_EQ(histogram.count(), 4);
    EXPECT_DOUBLE_EQ(histogram.sum(), 105.5);
    EXPECT_EQ(histogram.bucketCount(0), 2);
    EXPECT_EQ(histogram.bucketCount(1), 1);
    EXPECT_EQ(histogram.bucketCount(2), 1);
    histogram.reset();
    EXPECT_EQ(histogram.count(), 0);
    EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
    EXPECT_EQ(histogram.bucketCount(0), 0);
}

TEST(ObsRegistry, CounterIdentityIsStable)
{
    obs::MetricsRegistry registry;
    obs::Counter &a = registry.counter("test.alpha");
    obs::Counter &b = registry.counter("test.alpha");
    EXPECT_EQ(&a, &b);
    a.add(7);
    EXPECT_EQ(registry.counterValue("test.alpha"), 7);
    EXPECT_EQ(registry.counterValue("test.never_registered"), 0);
    // reset zeroes values but keeps references valid.
    registry.reset();
    EXPECT_EQ(a.value(), 0);
    a.add(3);
    EXPECT_EQ(registry.counterValue("test.alpha"), 3);
}

TEST(ObsRegistry, HistogramBoundsFixedAtRegistration)
{
    obs::MetricsRegistry registry;
    obs::Histogram &h = registry.histogram("test.h", {1.0, 2.0});
    obs::Histogram &again = registry.histogram("test.h", {9.0});
    EXPECT_EQ(&h, &again);
    ASSERT_EQ(again.upperBounds().size(), 2u);
    EXPECT_DOUBLE_EQ(again.upperBounds()[0], 1.0);
}

TEST(ObsRegistry, DumpTextListsEveryMetric)
{
    obs::MetricsRegistry registry;
    registry.counter("test.c").add(5);
    registry.histogram("test.h", {1.0}).observe(0.5);
    std::ostringstream out;
    registry.dumpText(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("test.c 5"), std::string::npos);
    EXPECT_NE(text.find("test.h count=1"), std::string::npos);
    EXPECT_NE(text.find("test.h.bucket[le=1] 1"), std::string::npos);
    EXPECT_NE(text.find("test.h.bucket[le=+inf] 0"),
              std::string::npos);
}

TEST(ObsRegistry, DumpJsonIsValidJson)
{
    obs::MetricsRegistry registry;
    registry.counter("test.c").add(5);
    registry.histogram("test.h", {1.0, 2.0}).observe(1.5);
    const std::string json = registry.dumpJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"test.c\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Spans

TEST(ObsSpans, DisabledSessionRecordsNothing)
{
    resetSession();
    {
        COMET_SPAN("should_not_record");
    }
    EXPECT_EQ(obs::TraceSession::global().bufferedSpans(), 0);
    EXPECT_TRUE(obs::TraceSession::global().drain().empty());
}

TEST(ObsSpans, NestedSpansRecordDepthAndOrder)
{
    resetSession();
    obs::TraceSession::global().start();
    {
        COMET_SPAN("outer");
        {
            COMET_SPAN("inner");
        }
    }
    obs::TraceSession::global().stop();
    const std::vector<obs::SpanRecord> spans =
        obs::TraceSession::global().drain();
    ASSERT_EQ(spans.size(), 2u);
    // Sorted by begin time: outer opens first.
    EXPECT_STREQ(spans[0].name, "outer");
    EXPECT_STREQ(spans[1].name, "inner");
    EXPECT_EQ(spans[0].depth, 0);
    EXPECT_EQ(spans[1].depth, 1);
    // The inner interval nests inside the outer one.
    EXPECT_GE(spans[1].begin_ns, spans[0].begin_ns);
    EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
    EXPECT_GE(spans[0].end_ns, spans[0].begin_ns);
}

TEST(ObsSpans, StopThenStartIsolatesSessions)
{
    resetSession();
    obs::TraceSession::global().start();
    {
        COMET_SPAN("first_session");
    }
    obs::TraceSession::global().stop();
    {
        COMET_SPAN("between_sessions"); // must not record
    }
    const auto spans = obs::TraceSession::global().drain();
    EXPECT_EQ(countSpans(spans, "first_session"), 1);
    EXPECT_EQ(countSpans(spans, "between_sessions"), 0);
}

TEST(ObsSpans, ThreadPoolChunksRecordSpans)
{
    resetSession();
    obs::TraceSession::global().start();
    std::vector<int64_t> data(1024, 0);
    parallelFor(0, static_cast<int64_t>(data.size()), 1,
                [&](int64_t begin, int64_t end) {
                    for (int64_t i = begin; i < end; ++i)
                        data[static_cast<size_t>(i)] = i;
                });
    obs::TraceSession::global().stop();
    const auto spans = obs::TraceSession::global().drain();
    EXPECT_GT(countSpans(spans, "pool/chunk"), 0);
}

TEST(ObsTrace, ChromeTraceJsonIsValidAndCarriesEvents)
{
    resetSession();
    obs::TraceSession::global().start();
    {
        COMET_SPAN("outer");
        {
            COMET_SPAN("inner");
        }
    }
    obs::TraceSession::global().stop();
    const std::string json =
        obs::TraceSession::global().chromeTraceJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // chromeTraceJson drains: a second export is empty but valid.
    const std::string empty =
        obs::TraceSession::global().chromeTraceJson();
    JsonChecker empty_checker(empty);
    EXPECT_TRUE(empty_checker.valid()) << empty;
    EXPECT_EQ(empty.find("\"name\":\"outer\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace-run integration: the serving loop must emit the documented
// span hierarchy, including preemption spans under KV pressure.

/** Engine whose KV budget is exactly @p blocks KV4 blocks. */
ServingEngine
makeTinyKvEngine(EngineConfig config, int64_t blocks)
{
    const KvCacheConfig probe_config{.bits_per_value = 4.0,
                                     .block_tokens = 16,
                                     .memory_budget_bytes = 1e9};
    const PagedKvCache probe(config.model, probe_config);
    const ServingEngine unsized(config);
    config.usable_memory_fraction =
        (unsized.weightBytes() +
         probe.blockBytes() * static_cast<double>(blocks)) /
        unsized.gpu().hbm_capacity_bytes;
    return ServingEngine(config);
}

TraceRun
runTightKvBurst()
{
    EngineConfig config;
    config.model = LlmConfig::llama3_8b();
    config.mode = ServingMode::kCometW4AxKv4;
    config.input_tokens = 256;
    config.output_tokens = 256;
    const ServingEngine engine = makeTinyKvEngine(config, 300);
    server::TraceConfig trace_config;
    trace_config.num_requests = 16;
    trace_config.request_rate_per_s = 1000.0; // all at once
    trace_config.mean_prompt_tokens = 256;
    trace_config.mean_output_tokens = 256;
    return runTrace(engine, server::generateTrace(trace_config));
}

TEST(ObsReplay, ReplayEmitsNestedSchedulingSpans)
{
    resetSession();
    obs::TraceSession::global().start();
    const TraceRun run = runTightKvBurst();
    obs::TraceSession::global().stop();
    ASSERT_GT(run.counters.preemptions, 0); // the workload is KV-tight
    const auto spans = obs::TraceSession::global().drain();
    // A trace run is a Server session: its loop thread records the
    // one top-level server/session span and, under it, the step,
    // prefill, decode and preemption spans.
    EXPECT_EQ(countSpans(spans, "server/session"), 1);
    EXPECT_GT(countSpans(spans, "server/step"), 0);
    EXPECT_GT(countSpans(spans, "server/prefill"), 0);
    EXPECT_GT(countSpans(spans, "server/decode"), 0);
    EXPECT_GT(countSpans(spans, "scheduler/preempt"), 0);
    int session_tid = -1;
    for (const obs::SpanRecord &span : spans) {
        if (std::strcmp(span.name, "server/session") == 0) {
            EXPECT_EQ(span.depth, 0);
            session_tid = span.tid;
        }
    }
    ASSERT_GE(session_tid, 0);
    for (const obs::SpanRecord &span : spans) {
        // Steps nest under the loop thread's server/session span.
        if (std::strcmp(span.name, "server/step") == 0) {
            EXPECT_GE(span.depth, 1);
            EXPECT_EQ(span.tid, session_tid);
        }
    }
}

// ---------------------------------------------------------------------------
// Activation plumbing (programmatic twin of COMET_TRACE)

TEST(ObsConfigTest, FlushTraceWritesLoadableJson)
{
    resetSession();
    const std::string path =
        ::testing::TempDir() + "comet_obs_trace_test.json";
    obs::ObsConfig config;
    config.spans = true;
    config.trace_path = path;
    obs::configure(config);
    EXPECT_TRUE(obs::TraceSession::enabled());
    {
        COMET_SPAN("configured_span");
    }
    const Status status = obs::flushTrace();
    ASSERT_TRUE(status.isOk()) << status.message();
    EXPECT_FALSE(obs::TraceSession::enabled()); // flush stops it

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream contents;
    contents << in.rdbuf();
    const std::string json = contents.str();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("\"name\":\"configured_span\""),
              std::string::npos);
    std::remove(path.c_str());
    obs::configure(obs::ObsConfig{}); // leave everything off
}

TEST(ObsConfigTest, ConfigFromEnvReadsCometTrace)
{
    ::setenv("COMET_TRACE", "/tmp/some_trace.json", 1);
    const obs::ObsConfig on = obs::configFromEnv();
    EXPECT_TRUE(on.spans);
    EXPECT_EQ(on.trace_path, "/tmp/some_trace.json");
    ::unsetenv("COMET_TRACE");
    const obs::ObsConfig off = obs::configFromEnv();
    EXPECT_FALSE(off.spans);
    EXPECT_TRUE(off.trace_path.empty());
}

// ---------------------------------------------------------------------------
// The peak-KV-utilization unit bugfix: one shared fraction definition.

TEST(KvUtilization, SchedulerDefinitionIsAFraction)
{
    SchedulerCounters counters;
    counters.peak_used_blocks = 50;
    EXPECT_DOUBLE_EQ(counters.peakKvUtilization(100), 0.5);
    EXPECT_DOUBLE_EQ(counters.peakKvUtilization(0), 0.0);
    counters.peak_used_blocks = 100;
    EXPECT_DOUBLE_EQ(counters.peakKvUtilization(100), 1.0);
}

TEST(KvUtilization, ReplayMetricsMatchTheSharedDefinition)
{
    // Regression for the unit bug: a trace run's peak utilization,
    // derived through SchedulerCounters::peakKvUtilization from the
    // session's own pool, is a fraction of the blocks the server
    // sized, never a percent and never a different block accounting.
    const TraceRun run = runTightKvBurst();
    ASSERT_GT(run.kv_total_blocks, 0);
    ASSERT_GT(run.counters.peak_used_blocks, 0);
    EXPECT_LE(run.counters.peak_used_blocks, run.kv_total_blocks);
    const double peak_kv_utilization =
        run.counters.peakKvUtilization(run.kv_total_blocks);
    EXPECT_DOUBLE_EQ(peak_kv_utilization,
                     static_cast<double>(run.counters.peak_used_blocks) /
                         static_cast<double>(run.kv_total_blocks));
    EXPECT_GT(peak_kv_utilization, 0.0);
    EXPECT_LE(peak_kv_utilization, 1.0);
}

TEST(KvUtilization, ReplayPublishesCountersToTheRegistry)
{
    // The session publishes under the server's `server.*` prefix
    // (counters are monotonic: repeated runs accumulate).
    obs::MetricsRegistry &registry = obs::MetricsRegistry::global();
    const int64_t completed_before =
        registry.counterValue("server.completed");
    const int64_t tokens_before =
        registry.counterValue("server.streamed_tokens");
    const TraceRun run = runTightKvBurst();
    EXPECT_EQ(registry.counterValue("server.completed") -
                  completed_before,
              run.report.completed);
    EXPECT_EQ(registry.counterValue("server.streamed_tokens") -
                  tokens_before,
              run.report.tokens);
}

} // namespace
} // namespace comet
