#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mem/json.h"
#include "mem/memory.h"

namespace dsa::mem {
namespace {

TEST(Memory, StartsZeroed) {
  Memory m(64);
  for (std::uint32_t a = 0; a < 64; ++a) EXPECT_EQ(m.Read8(a), 0u);
}

TEST(Memory, ByteRoundTrip) {
  Memory m(16);
  m.Write8(3, 0xAB);
  EXPECT_EQ(m.Read8(3), 0xAB);
}

TEST(Memory, HalfwordLittleEndian) {
  Memory m(16);
  m.Write16(4, 0x1234);
  EXPECT_EQ(m.Read8(4), 0x34);
  EXPECT_EQ(m.Read8(5), 0x12);
  EXPECT_EQ(m.Read16(4), 0x1234);
}

TEST(Memory, WordLittleEndian) {
  Memory m(16);
  m.Write32(8, 0xDEADBEEF);
  EXPECT_EQ(m.Read8(8), 0xEF);
  EXPECT_EQ(m.Read8(11), 0xDE);
  EXPECT_EQ(m.Read32(8), 0xDEADBEEFu);
}

TEST(Memory, FloatRoundTrip) {
  Memory m(16);
  m.WriteF32(0, 3.25f);
  EXPECT_FLOAT_EQ(m.ReadF32(0), 3.25f);
}

TEST(Memory, UnalignedAccessAllowed) {
  Memory m(16);
  m.Write32(1, 0x01020304);
  EXPECT_EQ(m.Read32(1), 0x01020304u);
  EXPECT_EQ(m.Read16(2), 0x0203u);
}

TEST(Memory, BlockRoundTrip) {
  Memory m(64);
  const std::uint8_t src[5] = {1, 2, 3, 4, 5};
  m.WriteBlock(10, src, 5);
  std::uint8_t dst[5] = {};
  m.ReadBlock(10, dst, 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dst[i], src[i]);
}

TEST(Memory, OutOfRangeByteThrows) {
  Memory m(8);
  EXPECT_THROW(static_cast<void>(m.Read8(8)), std::out_of_range);
  EXPECT_THROW(m.Write8(100, 1), std::out_of_range);
}

TEST(Memory, OutOfRangeWordStraddleThrows) {
  Memory m(8);
  EXPECT_THROW(static_cast<void>(m.Read32(6)), std::out_of_range);  // 6..9
  EXPECT_THROW(m.Write32(5, 1), std::out_of_range);
  EXPECT_NO_THROW(static_cast<void>(m.Read32(4)));
}

TEST(Memory, NearUint32MaxDoesNotWrap) {
  // Regression: the old `addr + n - 1` probe computed its upper bound in
  // 32 bits, so an access near UINT32_MAX wrapped around and passed the
  // bounds check. The size_t rewrite must reject it.
  Memory m(16);
  EXPECT_THROW(static_cast<void>(m.Read32(0xFFFFFFFEu)), std::out_of_range);
  EXPECT_THROW(m.Write32(0xFFFFFFFFu, 1), std::out_of_range);
  EXPECT_THROW(static_cast<void>(m.Read8(0xFFFFFFFFu)), std::out_of_range);
  try {
    static_cast<void>(m.Read32(0xFFFFFFFEu));
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("0xfffffffe"), std::string::npos) << msg;
    EXPECT_NE(msg.find("size=4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("16 bytes"), std::string::npos) << msg;
  }
}

TEST(Memory, FailRangeMatchesAccessorException) {
  // FailRange is the out-of-line throw used by the interpreter's hoisted
  // bounds check; it must produce exactly the accessor exception.
  Memory m(8);
  std::string via_accessor, via_failrange;
  try {
    static_cast<void>(m.Read32(6));
  } catch (const std::out_of_range& e) {
    via_accessor = e.what();
  }
  try {
    m.FailRange(6, 4);
  } catch (const std::out_of_range& e) {
    via_failrange = e.what();
  }
  EXPECT_FALSE(via_accessor.empty());
  EXPECT_EQ(via_accessor, via_failrange);
}

TEST(Memory, OverlappingWritesLastWins) {
  Memory m(16);
  m.Write32(0, 0x11111111);
  m.Write16(2, 0xFFFF);
  EXPECT_EQ(m.Read32(0), 0xFFFF1111u);
}

// --- the JSON writer (mem/json.h) ----------------------------------------

TEST(JsonBuilder, CompactAndSpacedStylesDifferOnlyInSeparators) {
  for (const auto style :
       {JsonBuilder::Style::kCompact, JsonBuilder::Style::kSpaced}) {
    JsonBuilder w(style);
    w.Object().Key("a").U64(1).Key("b").Array().Bool(true).I64(-2).End();
    w.Key("c").Object().End().Key("d").Array().End().End();
    EXPECT_EQ(w.str(), style == JsonBuilder::Style::kCompact
                           ? R"({"a":1,"b":[true,-2],"c":{},"d":[]})"
                           : R"({"a": 1, "b": [true, -2], "c": {}, "d": []})");
  }
}

TEST(JsonBuilder, NumbersKeepTheCallersFormat) {
  JsonBuilder w;
  w.Array().Num(1.0 / 3.0, "%.6g").Num(0.1, "%.17g").Num(1234.5, "%.3f");
  w.Num(1e300, "%.1f").End();
  const std::string& s = w.str();
  const std::string head = "[0.333333,0.10000000000000001,1234.500,";
  EXPECT_EQ(s.rfind(head + "1000", 0), 0u);
  // %.1f of 1e300 is 301 digits and ".0".
  EXPECT_EQ(s.size(), head.size() + 303u + 1u);
  EXPECT_EQ(s.substr(s.size() - 3), ".0]");
}

TEST(JsonBuilder, WhitespaceGoesBeforeTheNextSeparator) {
  JsonBuilder w(JsonBuilder::Style::kSpaced);
  w.Object().Key("r").Array();
  w.Whitespace("\n  ").Object().End();
  w.Whitespace("\n  ").Object().End();
  w.Whitespace("\n").End().End();
  EXPECT_EQ(w.str(), "{\"r\": [\n  {}\n  , {}\n]}");
}

TEST(JsonBuilder, EncodedValuesAndDrainingKeepTheSeparatorState) {
  JsonBuilder w;
  w.Array().Encoded("{\"x\":1}");
  std::string drained = w.str();
  w.Clear();
  w.Encoded("2.50").End();
  drained += w.Take();
  EXPECT_EQ(drained, R"([{"x":1},2.50])");
}

TEST(JsonBuilder, EscapesQuotesControlsAndInvalidUtf8Only) {
  JsonBuilder w;
  w.Object().Key("k\"");
  w.Str("a\\b\n\x01 caf\xC3\xA9 \xF0\x9F\x99\x82 \xFF\xC3").End();
  EXPECT_EQ(w.str(),
            "{\"k\\\"\":\"a\\\\b\\u000a\\u0001 caf\xC3\xA9 "
            "\xF0\x9F\x99\x82 \\u00ff\\u00c3\"}");
}

}  // namespace
}  // namespace dsa::mem
