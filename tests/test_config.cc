/**
 * @file
 * Unit tests for Config.
 */

#include <gtest/gtest.h>

#include "common/config.hh"

namespace tenoc
{
namespace
{

TEST(Config, TypedSetAndGet)
{
    Config c;
    c.set("a.b", 42);
    c.set("a.c", 2.5);
    c.set("a.d", true);
    c.set("a.e", "hello");
    EXPECT_EQ(c.getInt("a.b", 0), 42);
    EXPECT_DOUBLE_EQ(c.getDouble("a.c", 0.0), 2.5);
    EXPECT_TRUE(c.getBool("a.d", false));
    EXPECT_EQ(c.getString("a.e"), "hello");
}

TEST(Config, DefaultsWhenMissing)
{
    Config c;
    EXPECT_EQ(c.getInt("nope", -7), -7);
    EXPECT_EQ(c.getUint("nope", 9u), 9u);
    EXPECT_FALSE(c.getBool("nope", false));
    EXPECT_EQ(c.getString("nope", "dflt"), "dflt");
    EXPECT_FALSE(c.has("nope"));
}

TEST(Config, BoolSpellings)
{
    Config c;
    for (const char *t : {"true", "1", "yes", "on", "TRUE", "Yes"}) {
        c.set("k", t);
        EXPECT_TRUE(c.getBool("k", false)) << t;
    }
    for (const char *f : {"false", "0", "no", "off", "False"}) {
        c.set("k", f);
        EXPECT_FALSE(c.getBool("k", true)) << f;
    }
}

TEST(Config, ParseText)
{
    Config c;
    const std::size_t n = c.parseText(
        "# a comment\n"
        "noc.vcs = 4\n"
        "\n"
        "noc.placement = checkerboard   # trailing comment\n"
        "dram.queue = 32\n");
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(c.getInt("noc.vcs", 0), 4);
    EXPECT_EQ(c.getString("noc.placement"), "checkerboard");
    EXPECT_EQ(c.getUint("dram.queue", 0), 32u);
}

TEST(Config, ParseHexAndNegative)
{
    Config c;
    c.parseText("mask = 0xff\nneg = -5\n");
    EXPECT_EQ(c.getInt("mask", 0), 255);
    EXPECT_EQ(c.getInt("neg", 0), -5);
}

TEST(Config, MergeOverrides)
{
    Config base;
    base.set("a", 1);
    base.set("b", 2);
    Config over;
    over.set("b", 3);
    over.set("c", 4);
    base.merge(over);
    EXPECT_EQ(base.getInt("a", 0), 1);
    EXPECT_EQ(base.getInt("b", 0), 3);
    EXPECT_EQ(base.getInt("c", 0), 4);
}

TEST(Config, ToTextRoundTrip)
{
    Config c;
    c.set("x.y", 5);
    c.set("z", "w");
    Config d;
    d.parseText(c.toText());
    EXPECT_EQ(d.getInt("x.y", 0), 5);
    EXPECT_EQ(d.getString("z"), "w");
}

TEST(Config, DoublesReadBackBitExact)
{
    // set(double) writes the shortest text that reads back as the same
    // value, so a sampled rate written to a key file replays exactly.
    Config c;
    c.set("a", 2.5);
    EXPECT_EQ(c.getString("a"), "2.5");
    for (const double v : {0.1, 1.0 / 3.0, 0.051088529171507163,
                           1e-300, 123456789.125}) {
        c.set("v", v);
        Config back;
        back.parseText(c.toText());
        EXPECT_EQ(back.getDouble("v", 0.0), v) << c.getString("v");
    }
}

TEST(Config, KeysSorted)
{
    Config c;
    c.set("b", 1);
    c.set("a", 1);
    const auto keys = c.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[1], "b");
}

using ConfigDeath = ::testing::Test;

TEST(ConfigDeath, MalformedIntIsFatal)
{
    Config c;
    c.set("k", "12abc");
    EXPECT_EXIT(c.getInt("k", 0), ::testing::ExitedWithCode(1),
                "non-integer");
}

TEST(ConfigDeath, MissingEqualsIsFatal)
{
    Config c;
    EXPECT_EXIT(c.parseText("no equals here\n"),
                ::testing::ExitedWithCode(1), "missing '='");
}

} // namespace
} // namespace tenoc
