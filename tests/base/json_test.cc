#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "base/json.hh"

using namespace contig;

TEST(JsonWriter, EmptyObject)
{
    JsonWriter w;
    w.beginObject();
    w.endObject();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(), "{}");
}

TEST(JsonWriter, EmptyArray)
{
    JsonWriter w;
    w.beginArray();
    w.endArray();
    EXPECT_EQ(w.str(), "[]");
}

TEST(JsonWriter, ObjectCommas)
{
    JsonWriter w;
    w.beginObject();
    w.field("a", 1);
    w.field("b", 2);
    w.endObject();
    EXPECT_EQ(w.str(), "{\"a\":1,\"b\":2}");
}

TEST(JsonWriter, ArrayCommas)
{
    JsonWriter w;
    w.beginArray();
    w.value(1);
    w.value(2);
    w.value(3);
    w.endArray();
    EXPECT_EQ(w.str(), "[1,2,3]");
}

TEST(JsonWriter, Nesting)
{
    JsonWriter w;
    w.beginObject();
    w.key("rows");
    w.beginArray();
    w.beginObject();
    w.field("x", true);
    w.endObject();
    w.beginObject();
    w.endObject();
    w.endArray();
    w.endObject();
    EXPECT_EQ(w.str(), "{\"rows\":[{\"x\":true},{}]}");
}

TEST(JsonWriter, Scalars)
{
    JsonWriter w;
    w.beginArray();
    w.value(true);
    w.value(false);
    w.null();
    w.value(std::uint64_t{18446744073709551615ull});
    w.value(std::int64_t{-5});
    w.endArray();
    EXPECT_EQ(w.str(), "[true,false,null,18446744073709551615,-5]");
}

TEST(JsonWriter, Doubles)
{
    JsonWriter w;
    w.beginArray();
    w.value(1.5);
    w.value(0.0);
    w.value(-2.25);
    w.endArray();
    EXPECT_EQ(w.str(), "[1.5,0,-2.25]");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    JsonWriter w;
    w.beginArray();
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(std::numeric_limits<double>::infinity());
    w.value(-std::numeric_limits<double>::infinity());
    w.endArray();
    EXPECT_EQ(w.str(), "[null,null,null]");
}

TEST(JsonWriter, TopLevelScalar)
{
    JsonWriter w;
    w.value("hi");
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(), "\"hi\"");
}

TEST(JsonWriter, CompleteTracksNesting)
{
    JsonWriter w;
    EXPECT_FALSE(w.complete());
    w.beginObject();
    EXPECT_FALSE(w.complete());
    w.key("k");
    w.beginArray();
    EXPECT_FALSE(w.complete());
    w.endArray();
    w.endObject();
    EXPECT_TRUE(w.complete());
}

TEST(JsonWriter, MoveOutString)
{
    JsonWriter w;
    w.beginObject();
    w.endObject();
    std::string s = std::move(w).str();
    EXPECT_EQ(s, "{}");
}

TEST(JsonEscape, PassThrough)
{
    EXPECT_EQ(JsonWriter::escape("plain ascii 123"), "plain ascii 123");
    // UTF-8 multibyte sequences pass through untouched.
    EXPECT_EQ(JsonWriter::escape("\xC3\xA9"), "\xC3\xA9");
}

TEST(JsonEscape, Specials)
{
    EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(JsonWriter::escape("\n\t\r\b\f"), "\\n\\t\\r\\b\\f");
}

TEST(JsonEscape, ControlCharacters)
{
    EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
    EXPECT_EQ(JsonWriter::escape(std::string_view("\x1f", 1)), "\\u001f");
    EXPECT_EQ(JsonWriter::escape(std::string_view("\0", 1)), "\\u0000");
}

TEST(JsonWriter, EscapedKeyAndValue)
{
    JsonWriter w;
    w.beginObject();
    w.field("quote\"key", "line\nbreak");
    w.endObject();
    EXPECT_EQ(w.str(), "{\"quote\\\"key\":\"line\\nbreak\"}");
}

// --- JsonValue (the reader) -----------------------------------------------

TEST(JsonValue, ParsesScalars)
{
    EXPECT_TRUE(JsonValue::parse("null")->isNull());
    EXPECT_TRUE(JsonValue::parse("true")->asBool());
    EXPECT_FALSE(JsonValue::parse("false")->asBool());
    EXPECT_DOUBLE_EQ(JsonValue::parse("-12.5e2")->asNumber(), -1250.0);
    EXPECT_EQ(JsonValue::parse("\"hi\"")->asString(), "hi");
    EXPECT_DOUBLE_EQ(JsonValue::parse(" 42 ")->asNumber(), 42.0);
}

TEST(JsonValue, ParsesContainersPreservingOrder)
{
    auto doc = JsonValue::parse(R"({"b":1,"a":[2,"x",{}],"c":null})");
    ASSERT_TRUE(doc);
    ASSERT_TRUE(doc->isObject());
    ASSERT_EQ(doc->members().size(), 3u);
    EXPECT_EQ(doc->members()[0].first, "b");
    EXPECT_EQ(doc->members()[1].first, "a");
    EXPECT_EQ(doc->members()[2].first, "c");

    const JsonValue *a = doc->find("a");
    ASSERT_TRUE(a && a->isArray());
    ASSERT_EQ(a->array().size(), 3u);
    EXPECT_DOUBLE_EQ(a->array()[0].asNumber(), 2.0);
    EXPECT_EQ(a->array()[1].asString(), "x");
    EXPECT_TRUE(a->array()[2].isObject());

    EXPECT_EQ(doc->find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(doc->numberOr("b", -1), 1.0);
    EXPECT_DOUBLE_EQ(doc->numberOr("c", -1), -1.0); // null, not number
    EXPECT_DOUBLE_EQ(doc->numberOr("missing", 7), 7.0);
}

TEST(JsonValue, AsUintAcceptsOnlyIntegersThatFit)
{
    auto uintOf = [](const char *text, std::uint64_t max) {
        return JsonValue::parse(text)->asUint(max);
    };
    constexpr std::uint64_t kAll = ~std::uint64_t{0};
    EXPECT_EQ(uintOf("0", kAll), 0u);
    EXPECT_EQ(uintOf("42", kAll), 42u);
    EXPECT_EQ(uintOf("4.2e1", kAll), 42u);
    EXPECT_EQ(uintOf("9007199254740992", kAll), std::uint64_t{1} << 53);
    // The largest double below 2^64.
    EXPECT_EQ(uintOf("18446744073709549568", kAll), 18446744073709549568u);
    EXPECT_EQ(uintOf("4294967295", 0xffffffffu), 0xffffffffu);

    EXPECT_FALSE(uintOf("1e300", kAll));
    EXPECT_FALSE(uintOf("18446744073709551616", kAll)); // 2^64
    EXPECT_FALSE(uintOf("1.5", kAll));
    EXPECT_FALSE(uintOf("0.5", kAll));
    EXPECT_FALSE(uintOf("-1", kAll));
    EXPECT_FALSE(uintOf("4294967296", 0xffffffffu));
    EXPECT_FALSE(uintOf("\"7\"", kAll));
    EXPECT_FALSE(uintOf("null", kAll));
}

TEST(JsonValue, DecodesEscapes)
{
    auto doc = JsonValue::parse(R"("a\"b\\c\n\tAé")");
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->asString(), "a\"b\\c\n\tA\xC3\xA9");
}

TEST(JsonValue, RoundTripsWriterOutput)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "fig\"09");
    w.field("pi", 3.25);
    w.key("rows");
    w.beginArray();
    w.value(std::uint64_t{1} << 52);
    w.value(false);
    w.endArray();
    w.endObject();

    auto doc = JsonValue::parse(w.str());
    ASSERT_TRUE(doc);
    EXPECT_EQ(doc->find("name")->asString(), "fig\"09");
    EXPECT_DOUBLE_EQ(doc->find("pi")->asNumber(), 3.25);
    EXPECT_DOUBLE_EQ(doc->find("rows")->array()[0].asNumber(),
                     static_cast<double>(std::uint64_t{1} << 52));
    EXPECT_FALSE(doc->find("rows")->array()[1].asBool());
}

TEST(JsonValue, RejectsMalformedWithOffset)
{
    std::string err;
    EXPECT_FALSE(JsonValue::parse("", &err));
    EXPECT_FALSE(JsonValue::parse("{", &err));
    EXPECT_FALSE(JsonValue::parse("{\"a\":}", &err));
    EXPECT_FALSE(JsonValue::parse("[1,]", &err));
    EXPECT_FALSE(JsonValue::parse("tru", &err));
    EXPECT_FALSE(JsonValue::parse("1 2", &err)); // trailing garbage
    EXPECT_FALSE(err.empty());
}

TEST(JsonValue, RejectsRunawayNesting)
{
    std::string deep(1000, '[');
    deep += std::string(1000, ']');
    std::string err;
    EXPECT_FALSE(JsonValue::parse(deep, &err));
    EXPECT_NE(err.find("deep"), std::string::npos);
}
