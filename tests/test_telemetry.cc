/**
 * @file
 * Tests for the telemetry subsystem: JSON model round trips, the
 * metrics export versus StatGroup::dump, interval-sampler window
 * semantics (including cross-clock-domain driving), Chrome trace
 * output, CLI flag parsing and its fatal faults, an end-to-end mesh
 * run through a TelemetryHub, and that an attached tracer moves no
 * sealed stat.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.hh"
#include "common/stats.hh"
#include "net_digest.hh"
#include "noc/mesh_network.hh"
#include "telemetry/interval_sampler.hh"
#include "telemetry/json.hh"
#include "telemetry/metric_sink.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_sink.hh"

namespace tenoc
{
namespace
{

using telemetry::JsonValue;

// ---------------------------------------------------------------- JSON

TEST(Json, WriteParseRoundTrip)
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("int", JsonValue(42));
    doc.set("neg", JsonValue(-3.5));
    doc.set("big", JsonValue(std::uint64_t{123456789012345}));
    doc.set("str", JsonValue("hi \"there\"\n\t\\"));
    doc.set("flag", JsonValue(true));
    doc.set("nil", JsonValue());
    JsonValue arr = JsonValue::makeArray();
    arr.push(JsonValue(1));
    arr.push(JsonValue("two"));
    JsonValue nested = JsonValue::makeObject();
    nested.set("x", JsonValue(0.25));
    arr.push(std::move(nested));
    doc.set("arr", std::move(arr));

    for (unsigned indent : {0u, 2u}) {
        JsonValue back;
        std::string err;
        ASSERT_TRUE(
            JsonValue::parse(doc.toString(indent), back, &err))
            << err;
        EXPECT_DOUBLE_EQ(back.find("int")->asNumber(), 42.0);
        EXPECT_DOUBLE_EQ(back.find("neg")->asNumber(), -3.5);
        EXPECT_DOUBLE_EQ(back.find("big")->asNumber(),
                         123456789012345.0);
        EXPECT_EQ(back.find("str")->asString(), "hi \"there\"\n\t\\");
        EXPECT_TRUE(back.find("flag")->asBool());
        EXPECT_TRUE(back.find("nil")->isNull());
        const auto &a = back.find("arr")->asArray();
        ASSERT_EQ(a.size(), 3u);
        EXPECT_EQ(a[1].asString(), "two");
        EXPECT_DOUBLE_EQ(a[2].find("x")->asNumber(), 0.25);
    }
}

TEST(Json, ParseUnicodeEscapes)
{
    JsonValue v;
    ASSERT_TRUE(
        JsonValue::parse("\"a\\u0041\\u00e9\"", v, nullptr));
    EXPECT_EQ(v.asString(), "aA\xc3\xa9");
    // Surrogate pair: U+1F600.
    ASSERT_TRUE(
        JsonValue::parse("\"\\ud83d\\ude00\"", v, nullptr));
    EXPECT_EQ(v.asString(), "\xf0\x9f\x98\x80");
}

TEST(Json, ParseRejectsGarbage)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(JsonValue::parse("{", v, &err));
    EXPECT_FALSE(JsonValue::parse("[1,]", v, &err));
    EXPECT_FALSE(JsonValue::parse("{} trailing", v, &err));
    EXPECT_FALSE(JsonValue::parse("'single'", v, &err));
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------- metric sinks

/** Builds a small but full-featured stats hierarchy for sink tests. */
struct SampleStats
{
    Counter hits{"hits"};
    Accumulator lat{"lat"};
    Histogram hist{"hist", 0.0, 10.0, 5};
    StatGroup l1{"l1"};
    StatGroup root{"core0"};

    SampleStats()
    {
        hits.inc(7);
        lat.sample(2.0);
        lat.sample(4.0);
        hist.sample(1.0);
        hist.sample(9.0);
        l1.add(&hits);
        root.addChild(&l1);
        root.add(&lat);
        root.add(&hist);
        root.addValue("ipc", [] { return 1.25; });
    }
};

/** Parses "name value" dump lines into (name, value) pairs. */
std::vector<std::pair<std::string, double>>
dumpLines(const StatGroup &g)
{
    std::ostringstream os;
    g.dump(os);
    std::vector<std::pair<std::string, double>> out;
    std::istringstream is(os.str());
    std::string name;
    double value;
    while (is >> name >> value)
        out.push_back({name, value});
    return out;
}

TEST(JsonMetricSink, ContainsEveryDumpLine)
{
    SampleStats s;
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(
        telemetry::metricsToJson(s.root).toString(2), doc, &err))
        << err;
    EXPECT_EQ(doc.find("schema")->asString(), "tenoc-metrics-v1");
    const JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);

    const auto lines = dumpLines(s.root);
    ASSERT_FALSE(lines.empty());
    for (const auto &[name, value] : lines) {
        const JsonValue *v = metrics->find(name);
        ASSERT_NE(v, nullptr) << "missing metric: " << name;
        EXPECT_DOUBLE_EQ(v->asNumber(), value) << name;
    }

    // Histogram bucket data rides along.
    const JsonValue *h = doc.find("histograms");
    ASSERT_NE(h, nullptr);
    const JsonValue *hv = h->find("core0.hist");
    ASSERT_NE(hv, nullptr);
    EXPECT_DOUBLE_EQ(hv->find("low")->asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(hv->find("high")->asNumber(), 10.0);
    EXPECT_DOUBLE_EQ(hv->find("count")->asNumber(), 2.0);
    const auto &counts = hv->find("counts")->asArray();
    ASSERT_EQ(counts.size(), 5u);
    EXPECT_DOUBLE_EQ(counts[0].asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(counts[4].asNumber(), 1.0);
}

// ------------------------------------------------------ interval sampler

TEST(IntervalSampler, CounterDeltasAndGauges)
{
    telemetry::IntervalSampler s(100);
    double total = 0.0;
    double level = 0.0;
    s.addCounter("flits", [&] { return total; });
    s.addGauge("occ", [&] { return level; });

    total = 10.0;
    level = 3.0;
    s.tick(50); // mid-window: no row
    EXPECT_EQ(s.numRows(), 0u);
    s.tick(100); // first boundary
    ASSERT_EQ(s.numRows(), 1u);
    EXPECT_EQ(s.rowStart(0), 0u);
    EXPECT_EQ(s.rowEnd(0), 100u);
    EXPECT_DOUBLE_EQ(s.row(0)[0], 10.0); // delta over the window
    EXPECT_DOUBLE_EQ(s.row(0)[1], 3.0);  // instantaneous

    total = 25.0;
    level = 1.0;
    s.tick(200);
    ASSERT_EQ(s.numRows(), 2u);
    EXPECT_DOUBLE_EQ(s.row(1)[0], 15.0); // only this window's delta
    EXPECT_DOUBLE_EQ(s.row(1)[1], 1.0);
}

TEST(IntervalSampler, MultiWindowJumpEmitsEveryRow)
{
    telemetry::IntervalSampler s(10);
    double total = 0.0;
    s.addCounter("c", [&] { return total; });
    total = 7.0;
    s.tick(35); // crosses windows [0,10), [10,20), [20,30)
    ASSERT_EQ(s.numRows(), 3u);
    // The whole delta lands in the first crossed window.
    EXPECT_DOUBLE_EQ(s.row(0)[0], 7.0);
    EXPECT_DOUBLE_EQ(s.row(1)[0], 0.0);
    EXPECT_DOUBLE_EQ(s.row(2)[0], 0.0);
    EXPECT_EQ(s.rowStart(2), 20u);
    EXPECT_EQ(s.rowEnd(2), 30u);
}

TEST(IntervalSampler, FinishFlushesPartialWindowOnce)
{
    telemetry::IntervalSampler s(100);
    double total = 0.0;
    s.addCounter("c", [&] { return total; });
    total = 5.0;
    s.finish(42);
    ASSERT_EQ(s.numRows(), 1u);
    EXPECT_EQ(s.rowStart(0), 0u);
    EXPECT_EQ(s.rowEnd(0), 42u);
    EXPECT_DOUBLE_EQ(s.row(0)[0], 5.0);
    s.finish(42); // idempotent
    EXPECT_EQ(s.numRows(), 1u);
}

TEST(IntervalSampler, VectorProbesExpandToColumns)
{
    telemetry::IntervalSampler s(10);
    s.addGaugeVector("occ", 3,
                     [](std::size_t i) { return double(i) * 2.0; });
    ASSERT_EQ(s.columns().size(), 3u);
    EXPECT_EQ(s.columns()[0], "occ[0]");
    EXPECT_EQ(s.columns()[2], "occ[2]");
    s.tick(10);
    ASSERT_EQ(s.numRows(), 1u);
    EXPECT_DOUBLE_EQ(s.row(0)[2], 4.0);
}

TEST(IntervalSampler, CsvFormat)
{
    telemetry::IntervalSampler s(10);
    double total = 0.0;
    s.addCounter("flits", [&] { return total; });
    total = 4.0;
    s.tick(10);
    total = 6.0;
    s.finish(15);
    std::ostringstream os;
    s.writeCsv(os);
    EXPECT_EQ(os.str(), "window,start,end,flits\n"
                        "0,0,10,4\n"
                        "1,10,15,2\n");
}

TEST(IntervalSampler, DrivenAcrossClockDomains)
{
    // Tick the sampler from the icnt domain of a three-domain clock
    // set (Table II frequencies): rows must land exactly one per
    // icnt-cycle window regardless of the other domains' edges.
    ClockDomainSet clocks;
    const auto core = clocks.addDomain("core", 1296.0);
    const auto icnt = clocks.addDomain("icnt", 602.0);
    const auto mem = clocks.addDomain("mem", 1107.0);
    (void)core;
    (void)mem;

    const Cycle window = 25;
    telemetry::IntervalSampler s(window);
    Cycle icnt_now = 0;
    s.addGauge("now", [&] { return double(icnt_now); });

    while (icnt_now < 200) {
        const auto &ticked = clocks.advance();
        if (ticked[icnt]) {
            ++icnt_now;
            s.tick(icnt_now);
        }
    }
    ASSERT_EQ(s.numRows(), 200 / window);
    for (std::size_t i = 0; i < s.numRows(); ++i) {
        EXPECT_EQ(s.rowStart(i), i * window);
        EXPECT_EQ(s.rowEnd(i), (i + 1) * window);
    }
}

// ------------------------------------------------------------ trace sink

TEST(TraceSink, SamplingGate)
{
    telemetry::ChromeTraceSink t(64);
    EXPECT_TRUE(t.wants(0));
    EXPECT_TRUE(t.wants(64));
    EXPECT_TRUE(t.wants(128));
    EXPECT_FALSE(t.wants(1));
    EXPECT_FALSE(t.wants(63));
    telemetry::ChromeTraceSink all(1);
    EXPECT_TRUE(all.wants(17));
}

TEST(TraceSink, ChromeEventsParseBack)
{
    telemetry::ChromeTraceSink t(1);
    t.complete("hop", 3, 42, 10, 15);
    t.instant("va", 4, 42, 12);
    std::ostringstream os;
    t.write(os);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(os.str(), doc, &err)) << err;
    ASSERT_TRUE(doc.isArray());
    ASSERT_EQ(doc.asArray().size(), 2u);
    for (const auto &e : doc.asArray()) {
        ASSERT_TRUE(e.isObject());
        EXPECT_TRUE(e.has("name"));
        EXPECT_TRUE(e.has("ph"));
        EXPECT_TRUE(e.has("ts"));
        EXPECT_TRUE(e.has("pid"));
        EXPECT_TRUE(e.has("tid"));
    }
    const auto &hop = doc.asArray()[0];
    EXPECT_EQ(hop.find("name")->asString(), "hop");
    EXPECT_EQ(hop.find("ph")->asString(), "X");
    EXPECT_DOUBLE_EQ(hop.find("ts")->asNumber(), 10.0);
    EXPECT_DOUBLE_EQ(hop.find("dur")->asNumber(), 5.0);
    EXPECT_DOUBLE_EQ(hop.find("pid")->asNumber(), 3.0);
    EXPECT_DOUBLE_EQ(hop.find("tid")->asNumber(), 42.0);
    const auto &va = doc.asArray()[1];
    EXPECT_EQ(va.find("ph")->asString(), "i");
    EXPECT_FALSE(va.has("dur"));
}

// ------------------------------------------------------------- CLI flags

TEST(TelemetryFlags, ParsesAndStripsKnownFlags)
{
    const char *argv0[] = {"prog",       "--stats-json", "m.json",
                           "0.5",        "--interval-csv=iv.csv",
                           "--interval", "500",          "--trace",
                           "t.json",     "--trace-sample=8",
                           "extra"};
    std::vector<char *> argv;
    for (const char *a : argv0)
        argv.push_back(const_cast<char *>(a));
    argv.push_back(nullptr);
    int argc = static_cast<int>(argv.size()) - 1;

    const auto cfg =
        telemetry::parseTelemetryFlags(argc, argv.data());
    EXPECT_EQ(cfg.statsJsonPath, "m.json");
    EXPECT_EQ(cfg.intervalCsvPath, "iv.csv");
    EXPECT_EQ(cfg.intervalCycles, 500u);
    EXPECT_EQ(cfg.tracePath, "t.json");
    EXPECT_EQ(cfg.traceSampleEvery, 8u);
    EXPECT_TRUE(cfg.any());

    // Positional arguments survive, in order.
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "0.5");
    EXPECT_STREQ(argv[2], "extra");
    EXPECT_EQ(argv[3], nullptr);
}

TEST(TelemetryFlags, EmptyWhenNoFlags)
{
    const char *argv0[] = {"prog", "1.0"};
    std::vector<char *> argv;
    for (const char *a : argv0)
        argv.push_back(const_cast<char *>(a));
    argv.push_back(nullptr);
    int argc = 2;
    const auto cfg =
        telemetry::parseTelemetryFlags(argc, argv.data());
    EXPECT_FALSE(cfg.any());
    EXPECT_EQ(argc, 2);
    EXPECT_EQ(cfg.intervalCycles, 1000u); // defaults intact
    EXPECT_EQ(cfg.traceSampleEvery, 64u);
}

/** Runs parseTelemetryFlags over `prog args...`. */
telemetry::TelemetryConfig
parseArgs(std::vector<const char *> args)
{
    std::vector<char *> argv{const_cast<char *>("prog")};
    for (const char *a : args)
        argv.push_back(const_cast<char *>(a));
    argv.push_back(nullptr);
    int argc = static_cast<int>(argv.size()) - 1;
    return telemetry::parseTelemetryFlags(argc, argv.data());
}

TEST(TelemetryFlagsDeath, FlagWithoutValueIsFatal)
{
    EXPECT_EXIT(parseArgs({"--stats-json"}),
                ::testing::ExitedWithCode(1), "--stats-json needs a value");
    // A following flag is not a value.
    EXPECT_EXIT(parseArgs({"--interval-csv", "--trace", "t.json"}),
                ::testing::ExitedWithCode(1),
                "--interval-csv needs a value");
    EXPECT_EXIT(parseArgs({"--trace="}), ::testing::ExitedWithCode(1),
                "--trace needs a value");
}

TEST(TelemetryFlagsDeath, CountBelowOneIsFatal)
{
    EXPECT_EXIT(parseArgs({"--interval", "0"}),
                ::testing::ExitedWithCode(1),
                "--interval wants a whole number >= 1, got '0'");
    EXPECT_EXIT(parseArgs({"--trace-sample=0"}),
                ::testing::ExitedWithCode(1), "--trace-sample wants");
    EXPECT_EXIT(parseArgs({"--interval", "-5"}),
                ::testing::ExitedWithCode(1), "--interval wants");
    EXPECT_EXIT(parseArgs({"--trace-sample", "8x"}),
                ::testing::ExitedWithCode(1), "--trace-sample wants");
}

// ------------------------------------------------------------ end to end

TEST(TelemetryHub, EndToEndMeshRun)
{
    const std::string dir = testing::TempDir();
    telemetry::TelemetryConfig cfg;
    cfg.statsJsonPath = dir + "/tenoc_e2e_stats.json";
    cfg.intervalCsvPath = dir + "/tenoc_e2e_interval.csv";
    cfg.tracePath = dir + "/tenoc_e2e_trace.json";
    cfg.intervalCycles = 64;
    cfg.traceSampleEvery = 1;
    telemetry::TelemetryHub hub(cfg);

    MeshNetworkParams p;
    p.topo.rows = 4;
    p.topo.cols = 4;
    MeshNetwork net(p);
    struct Sink : PacketSink
    {
        bool tryReserve(const Packet &) override { return true; }
        void deliver(PacketPtr, Cycle) override {}
    } sink;
    for (NodeId n = 0; n < net.topology().numNodes(); ++n)
        net.setSink(n, &sink);
    net.attachTelemetry(hub);

    Cycle now = 0;
    for (; now < 300; ++now) {
        if (now < 200 && now % 4 == 0 && net.canInject(0, 0)) {
            auto pkt = makePacket();
            pkt->src = 0;
            pkt->dst = static_cast<NodeId>(15 - (now / 4) % 15);
            pkt->sizeFlits = 2;
            pkt->sizeBytes = 32;
            net.inject(std::move(pkt), now);
        }
        net.cycle(now);
        hub.tick(now + 1);
    }
    hub.finish(now);

    StatGroup root("net");
    net.stats().registerStats(root);
    ASSERT_TRUE(hub.writeOutputs(&root));
    ASSERT_GT(net.stats().packetsEjected, 0u);

    // Stats JSON: parses and matches the dump.
    {
        std::stringstream ss;
        ss << std::ifstream(cfg.statsJsonPath).rdbuf();
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(JsonValue::parse(ss.str(), doc, &err)) << err;
        const JsonValue *metrics = doc.find("metrics");
        ASSERT_NE(metrics, nullptr);
        // dump() prints 6 significant digits; the JSON keeps full
        // precision, so compare with a matching relative tolerance.
        for (const auto &[name, value] : dumpLines(root)) {
            const JsonValue *v = metrics->find(name);
            ASSERT_NE(v, nullptr) << "missing metric: " << name;
            EXPECT_NEAR(v->asNumber(), value,
                        1e-9 + 1e-5 * std::abs(value))
                << name;
        }
    }

    // Interval CSV: one row per full window plus the partial tail.
    {
        std::ifstream is(cfg.intervalCsvPath);
        std::string line;
        ASSERT_TRUE(std::getline(is, line));
        EXPECT_EQ(line.rfind("window,start,end,", 0), 0u);
        EXPECT_NE(line.find("router_occ[0]"), std::string::npos);
        EXPECT_NE(line.find("link_flits[0]"), std::string::npos);
        std::size_t rows = 0;
        while (std::getline(is, line))
            ++rows;
        EXPECT_EQ(rows, 300u / 64u + 1u);
    }

    // Trace: valid Chrome trace-event JSON with the expected phases.
    {
        std::stringstream ss;
        ss << std::ifstream(cfg.tracePath).rdbuf();
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(JsonValue::parse(ss.str(), doc, &err)) << err;
        ASSERT_TRUE(doc.isArray());
        ASSERT_GT(doc.asArray().size(), 0u);
        bool saw_inject = false;
        bool saw_hop = false;
        bool saw_eject = false;
        for (const auto &e : doc.asArray()) {
            ASSERT_TRUE(e.has("name") && e.has("ph") && e.has("ts") &&
                        e.has("pid") && e.has("tid"));
            const auto &name = e.find("name")->asString();
            saw_inject |= name == "inject_queue";
            saw_hop |= name == "hop" || name == "eject_hop";
            saw_eject |= name == "eject";
        }
        EXPECT_TRUE(saw_inject);
        EXPECT_TRUE(saw_hop);
        EXPECT_TRUE(saw_eject);
    }

    std::remove(cfg.statsJsonPath.c_str());
    std::remove(cfg.intervalCsvPath.c_str());
    std::remove(cfg.tracePath.c_str());
}

TEST(TelemetryHub, TracerChangesNoStats)
{
    // Tracing is pure observation: attaching a Chrome tracer to every
    // router and NI must not move a single sealed stat, on a single
    // network or on the sliced double network, and must record events.
    for (const bool sliced : {false, true}) {
        SCOPED_TRACE(sliced ? "double" : "single");
        MeshNetworkParams p;
        p.seed = 11;
        const auto plain = makeMeshNetwork(p, sliced);
        const auto traced = makeMeshNetwork(p, sliced);
        telemetry::TelemetryConfig cfg;
        cfg.tracePath = "unused.json"; // enables the sink only
        cfg.traceSampleEvery = 1;
        telemetry::TelemetryHub hub(cfg);
        traced->attachTelemetry(hub);
        EXPECT_EQ(driveRequestsAndReplies(*plain, 97, 1500, 0.04, 0.10),
                  driveRequestsAndReplies(*traced, 97, 1500, 0.04, 0.10));

        // The digest covers every sealed stat bit-exactly (counters,
        // accumulator sums, histogram buckets).
        Fnv a;
        Fnv b;
        a.stats(plain->stats());
        b.stats(traced->stats());
        EXPECT_EQ(a.value(), b.value());

        const telemetry::ChromeTraceSink *sink = hub.tracer();
        ASSERT_NE(sink, nullptr);
        EXPECT_GT(sink->numEvents(), 0u);
    }
}

TEST(TelemetryHub, NoSinksMeansNullAccessors)
{
    telemetry::TelemetryConfig cfg;
    EXPECT_FALSE(cfg.any());
    telemetry::TelemetryHub hub(cfg);
    EXPECT_EQ(hub.sampler(), nullptr);
    EXPECT_EQ(hub.tracer(), nullptr);
    hub.tick(123);   // null-sink fast path: no-op
    hub.finish(456);
    EXPECT_TRUE(hub.writeOutputs(nullptr)); // nothing requested
}

} // namespace
} // namespace tenoc
