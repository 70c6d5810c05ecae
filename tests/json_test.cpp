//===- tests/json_test.cpp - JSON writer and parser tests -------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"
#include "support/Json.h"
#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

using namespace dra;

namespace {

JsonValue parseOk(const std::string &Text) {
  JsonValue V;
  std::string Error;
  bool Ok = parseJson(Text, V, Error);
  EXPECT_TRUE(Ok) << "input: " << Text << "\nerror: " << Error;
  return V;
}

bool parseFails(const std::string &Text) {
  JsonValue V;
  std::string Error;
  return !parseJson(Text, V, Error);
}

} // namespace

TEST(JsonQuoteTest, EscapesSpecialCharacters) {
  EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(jsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(jsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(jsonQuote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(jsonQuote(std::string(1, '\0')), "\"\\u0000\"");
}

TEST(JsonNumberTest, RoundTripsAndRejectsNonFinite) {
  EXPECT_EQ(jsonNumber(0.0), "0");
  EXPECT_EQ(jsonNumber(1.5), "1.5");
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonNumber(std::nan("")), "null");
  // %.17g carries enough digits for an exact double round-trip.
  double V = 0.1 + 0.2;
  JsonValue P = parseOk(jsonNumber(V));
  EXPECT_EQ(P.Num, V);
}

TEST(JsonWriterTest, BuildsNestedDocument) {
  JsonWriter W;
  W.beginObject();
  W.key("name");
  W.value("dra");
  W.key("counts");
  W.beginArray();
  W.value(uint64_t(1));
  W.value(uint64_t(2));
  W.endArray();
  W.key("nested");
  W.beginObject();
  W.key("ok");
  W.value(true);
  W.key("none");
  W.null();
  W.endObject();
  W.endObject();
  std::string Doc = W.take();
  EXPECT_EQ(Doc, "{\"name\":\"dra\",\"counts\":[1,2],"
                 "\"nested\":{\"ok\":true,\"none\":null}}");
  parseOk(Doc);
}

TEST(JsonWriterTest, RawValueSplicesVerbatim) {
  JsonWriter W;
  W.beginObject();
  W.key("pre");
  W.rawValue("{\"x\":1}");
  W.endObject();
  std::string Doc = W.take();
  JsonValue V = parseOk(Doc);
  const JsonValue *Pre = V.find("pre");
  ASSERT_NE(Pre, nullptr);
  ASSERT_NE(Pre->find("x"), nullptr);
  EXPECT_EQ(Pre->find("x")->Num, 1.0);
}

namespace {

/// Element I of the chunked-writer tests: uneven sizes, from an empty
/// object to strings that need escapes and arrays nested up to 4 deep.
void writeUnevenElement(JsonWriter &W, size_t I) {
  switch (I % 5) {
  case 0:
    W.beginObject();
    W.endObject();
    break;
  case 1:
    for (size_t D = 0; D != I % 4 + 1; ++D)
      W.beginArray();
    W.value(uint64_t(I));
    for (size_t D = 0; D != I % 4 + 1; ++D)
      W.endArray();
    break;
  case 2: {
    std::string S;
    for (size_t K = 0; K != I % 37; ++K)
      S += "q\"\\\n\t\x01"[K % 6];
    W.value(S);
    break;
  }
  case 3:
    W.value(double(I) * 0.1);
    break;
  default:
    W.beginObject();
    W.key("i");
    W.value(uint64_t(I));
    W.key("xs");
    W.beginArray();
    for (size_t K = 0; K != I % 13; ++K)
      W.value(double(K) / 3.0);
    W.endArray();
    W.endObject();
  }
}

/// A document whose "items" array holds elements [0, N), written by
/// \p Elements, after a leading element when \p Head is set.
template <typename WriteFn>
std::string unevenDoc(size_t N, WriteFn Elements, bool Head = true) {
  JsonWriter W;
  W.beginObject();
  W.key("items");
  W.beginArray();
  if (Head)
    W.value("head");
  Elements(W, N);
  W.endArray();
  W.key("n");
  W.value(uint64_t(N));
  W.endObject();
  return W.take();
}

std::string serialUnevenDoc(size_t N, bool Head = true) {
  return unevenDoc(
      N,
      [](JsonWriter &W, size_t Count) {
        for (size_t I = 0; I != Count; ++I)
          writeUnevenElement(W, I);
      },
      Head);
}

std::string chunkedUnevenDoc(size_t N, bool Head) {
  return unevenDoc(
      N,
      [](JsonWriter &W, size_t Count) {
        writeElements(W, Count, writeUnevenElement);
      },
      Head);
}

} // namespace

TEST(ChunkedWriterTest, MatchesTheSerialLoopByteForByte) {
  for (bool Head : {false, true})
    for (size_t N : {0, 1, 63, 64, 65, 1024}) {
      std::string Serial = serialUnevenDoc(N, Head);
      EXPECT_EQ(chunkedUnevenDoc(N, Head), Serial)
          << "N = " << N << ", head " << Head;
      parseOk(Serial);
    }
}

TEST(ChunkedWriterTest, ElementErrorReachesTheCallerAfterTheJoin) {
  // One element throws, on whichever thread renders it: in the first
  // chunk (rendered before any thread starts), in the middle and last.
  for (size_t Bad : {0, 700, 1023}) {
    JsonWriter W;
    W.beginArray();
    try {
      writeElements(W, 1024, [Bad](JsonWriter &E, size_t I) {
        if (I == Bad)
          throw std::runtime_error("element " + std::to_string(I));
        writeUnevenElement(E, I);
      });
      ADD_FAILURE() << "no exception for element " << Bad;
    } catch (const std::runtime_error &E) {
      EXPECT_EQ(std::string(E.what()), "element " + std::to_string(Bad));
    }
  }
  JsonWriter W;
  W.beginArray();
  EXPECT_THROW(writeElements(W, 1024,
                             [](JsonWriter &E, size_t I) {
                               if (I == 512)
                                 throw std::bad_alloc();
                               writeUnevenElement(E, I);
                             }),
               std::bad_alloc);
}

TEST(ChunkedWriterTest, RunsSeriallyInsideAPoolWorker) {
  // Fan-outs do not nest: a chunked write made by a pool worker renders
  // every element on that worker's own thread.
  const std::string Serial = serialUnevenDoc(1024);
  std::vector<std::string> Docs(3);
  std::vector<char> SameThread(3, 1);
  runWorkers(3, [&](unsigned Self) {
    const std::thread::id Me = std::this_thread::get_id();
    EXPECT_TRUE(inWorkerRegion());
    Docs[Self] = unevenDoc(1024, [&](JsonWriter &W, size_t N) {
      writeElements(W, N, [&](JsonWriter &E, size_t I) {
        if (std::this_thread::get_id() != Me)
          SameThread[Self] = 0;
        writeUnevenElement(E, I);
      });
    });
  });
  EXPECT_FALSE(inWorkerRegion());
  for (unsigned Self = 0; Self != 3; ++Self) {
    EXPECT_TRUE(SameThread[Self]) << "worker " << Self;
    EXPECT_EQ(Docs[Self], Serial) << "worker " << Self;
  }
}

TEST(ChunkedWriterTest, WorkerErrorsAreRethrownLowestFirst) {
  std::vector<char> Ran(4, 0);
  try {
    runWorkers(4, [&](unsigned Self) {
      Ran[Self] = 1;
      if (Self >= 2)
        throw std::runtime_error("worker " + std::to_string(Self));
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error &E) {
    EXPECT_EQ(std::string(E.what()), "worker 2");
  }
  EXPECT_EQ(Ran, std::vector<char>(4, 1));
}

TEST(JsonParserTest, ParsesScalarsAndContainers) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_TRUE(parseOk("true").B);
  EXPECT_FALSE(parseOk("false").B);
  EXPECT_EQ(parseOk("-12.5e2").Num, -1250.0);
  EXPECT_EQ(parseOk("1e308").Num, 1e308);
  EXPECT_EQ(parseOk("\"hi\"").Str, "hi");
  EXPECT_EQ(parseOk("[1, 2, 3]").Arr.size(), 3u);
  JsonValue O = parseOk("{\"a\": 1, \"b\": [true]}");
  ASSERT_TRUE(O.isObject());
  EXPECT_EQ(O.Obj.size(), 2u);
  EXPECT_EQ(O.find("a")->Num, 1.0);
  EXPECT_EQ(O.find("missing"), nullptr);
}

TEST(JsonParserTest, DecodesEscapes) {
  EXPECT_EQ(parseOk("\"a\\n\\t\\\"\\\\b\"").Str, "a\n\t\"\\b");
  EXPECT_EQ(parseOk("\"\\u0041\"").Str, "A");
  // Surrogate pair: U+1F600 as UTF-8.
  EXPECT_EQ(parseOk("\"\\uD83D\\uDE00\"").Str, "\xF0\x9F\x98\x80");
}

TEST(JsonParserTest, RejectsMalformedInput) {
  EXPECT_TRUE(parseFails(""));
  EXPECT_TRUE(parseFails("{"));
  EXPECT_TRUE(parseFails("[1,]"));
  EXPECT_TRUE(parseFails("{\"a\":}"));
  EXPECT_TRUE(parseFails("{\"a\" 1}"));
  EXPECT_TRUE(parseFails("01"));
  EXPECT_TRUE(parseFails("1."));
  EXPECT_TRUE(parseFails("nul"));
  EXPECT_TRUE(parseFails("\"unterminated"));
  EXPECT_TRUE(parseFails("\"bad\\q\""));
  EXPECT_TRUE(parseFails("\"\\uD83D\"")); // unpaired high surrogate
  EXPECT_TRUE(parseFails("1 2"));         // trailing garbage
  EXPECT_TRUE(parseFails("1e999"));       // strtod overflows to inf
  EXPECT_TRUE(parseFails("-1e999"));
}

TEST(JsonParserTest, ErrorsCarryByteOffsets) {
  JsonValue V;
  std::string Error;
  EXPECT_FALSE(parseJson("[1, x]", V, Error));
  EXPECT_NE(Error.find("offset"), std::string::npos) << Error;
  EXPECT_FALSE(parseJson("[0, 1e999]", V, Error));
  EXPECT_EQ(Error, "number out of range at offset 4");
}

TEST(JsonParserTest, BoundsNestingDepth) {
  std::string Deep(200, '[');
  Deep += std::string(200, ']');
  EXPECT_TRUE(parseFails(Deep));
  std::string Fine(50, '[');
  Fine += std::string(50, ']');
  parseOk(Fine);
}

TEST(JsonRoundTripTest, WriterOutputReparses) {
  JsonWriter W;
  W.beginArray();
  W.value("quote \" backslash \\ newline \n");
  W.value(-0.000123456789012345);
  W.value(int64_t(-7));
  W.value(uint64_t(18446744073709551615ull));
  W.endArray();
  JsonValue V = parseOk(W.take());
  ASSERT_EQ(V.Arr.size(), 4u);
  EXPECT_EQ(V.Arr[0].Str, "quote \" backslash \\ newline \n");
  EXPECT_EQ(V.Arr[1].Num, -0.000123456789012345);
  EXPECT_EQ(V.Arr[2].Num, -7.0);
}

//===----------------------------------------------------------------------===//
// Formatter differential: the to_chars append helpers against printf and
// std::to_string, which define the exported text (docs/FORMATS.md).
//===----------------------------------------------------------------------===//

namespace {

std::string printfExact(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Seeded doubles covering every %.17g shape: random bit patterns (NaN
/// payloads included), subnormals, signed zeros, the 2^53 integer edge,
/// powers of ten across the whole range, and the non-finite values.
std::vector<double> formatterCorpus() {
  constexpr double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> Vs = {0.0,
                            -0.0,
                            Inf,
                            -Inf,
                            NaN,
                            -NaN,
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::lowest(),
                            std::numeric_limits<double>::epsilon(),
                            9007199254740991.0,  // 2^53 - 1
                            9007199254740992.0,  // 2^53
                            9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
                            -9007199254740993.0,
                            0.1 + 0.2};
  for (int E = -324; E <= 308; ++E) {
    double P = std::pow(10.0, E);
    Vs.insert(Vs.end(), {P, -P, std::nextafter(P, 0.0),
                         std::nextafter(P, Inf)});
  }
  std::mt19937_64 Rng(20061);
  for (int I = 0; I != 100000; ++I)
    Vs.push_back(std::bit_cast<double>(Rng()));
  // Subnormals: zero exponent field, random mantissa and sign.
  for (int I = 0; I != 10000; ++I)
    Vs.push_back(std::bit_cast<double>(Rng() & 0x800FFFFFFFFFFFFFull));
  // Magnitudes the exporters actually write: joules and milliseconds.
  std::uniform_real_distribution<double> Unit(0.0, 1.0);
  for (int I = 0; I != 10000; ++I)
    Vs.push_back(Unit(Rng) * std::pow(10.0, int(Rng() % 12) - 3));
  return Vs;
}

} // namespace

TEST(FormatterDifferentialTest, DoublesMatchPrintfExact) {
  std::vector<double> Vs = formatterCorpus();
  ASSERT_GE(Vs.size(), 100000u);
  JsonWriter W;
  W.beginArray();
  std::string WantDoc = "[";
  for (size_t I = 0; I != Vs.size(); ++I) {
    const double V = Vs[I];
    const std::string Printf = printfExact(V);
    const std::string Json = std::isfinite(V) ? Printf : "null";
    ASSERT_EQ(fmtExact(V), Printf) << "bits " << std::bit_cast<uint64_t>(V);
    ASSERT_EQ(jsonNumber(V), Json) << "bits " << std::bit_cast<uint64_t>(V);
    std::string Appended = "x";
    appendExactDouble(Appended, V);
    ASSERT_EQ(Appended, "x" + Printf);
    W.value(V);
    if (I)
      WantDoc += ',';
    WantDoc += Json;
  }
  W.endArray();
  WantDoc += ']';
  EXPECT_EQ(W.take(), WantDoc);
}

TEST(FormatterDifferentialTest, NonFiniteSpellings) {
  constexpr double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  // fmtExact keeps printf's spellings; JSON cannot carry them.
  EXPECT_EQ(fmtExact(Inf), "inf");
  EXPECT_EQ(fmtExact(-Inf), "-inf");
  EXPECT_EQ(fmtExact(NaN), "nan");
  EXPECT_EQ(fmtExact(-NaN), "-nan");
  for (double V : {Inf, -Inf, NaN, -NaN})
    EXPECT_EQ(jsonNumber(V), "null");
}

TEST(FormatterDifferentialTest, IntegersMatchToString) {
  std::vector<int64_t> Signed = {0,
                                 1,
                                 -1,
                                 9,
                                 10,
                                 -10,
                                 std::numeric_limits<int64_t>::max(),
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::min() + 1};
  std::vector<uint64_t> Unsigned = {
      0,
      1,
      9,
      10,
      99,
      100,
      std::numeric_limits<uint64_t>::max(),
      std::numeric_limits<uint64_t>::max() - 1,
      uint64_t(std::numeric_limits<int64_t>::max()) + 1};
  std::mt19937_64 Rng(53);
  for (int I = 0; I != 10000; ++I) {
    uint64_t Bits = Rng() >> (Rng() % 64); // Every digit count.
    Unsigned.push_back(Bits);
    Signed.push_back(int64_t(Bits) * (I % 2 ? -1 : 1));
  }
  JsonWriter W;
  W.beginArray();
  std::string WantDoc = "[";
  auto Check = [&](auto V) {
    std::string Appended;
    appendInteger(Appended, V);
    EXPECT_EQ(Appended, std::to_string(V));
    W.value(V);
    if (WantDoc.size() > 1)
      WantDoc += ',';
    WantDoc += std::to_string(V);
  };
  for (int64_t V : Signed)
    Check(V);
  for (uint64_t V : Unsigned)
    Check(V);
  W.endArray();
  WantDoc += ']';
  EXPECT_EQ(W.take(), WantDoc);
}

TEST(FormatterDifferentialTest, StringViewsEscapeEveryByte) {
  // Every byte value, NUL included, once as a whole string and once per
  // character, against the escape table of RFC 8259's short escapes plus
  // \u00XX for the remaining control characters.
  auto Escaped = [](unsigned char C) -> std::string {
    switch (C) {
    case '"':
      return "\\\"";
    case '\\':
      return "\\\\";
    case '\b':
      return "\\b";
    case '\f':
      return "\\f";
    case '\n':
      return "\\n";
    case '\r':
      return "\\r";
    case '\t':
      return "\\t";
    }
    if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      return Buf;
    }
    return std::string(1, char(C));
  };
  std::string All, AllEscaped;
  for (unsigned C = 0; C != 256; ++C) {
    All += char(C);
    AllEscaped += Escaped((unsigned char)C);
    const char Byte = char(C);
    EXPECT_EQ(jsonQuote(std::string_view(&Byte, 1)),
              std::string("\"").append(Escaped((unsigned char)C)).append("\""))
        << "byte " << C;
  }
  ASSERT_EQ(All.size(), 256u);
  const std::string Quoted = "\"" + AllEscaped + "\"";
  EXPECT_EQ(jsonQuote(All), Quoted);

  // Runs of plain text around escapes, as keys and as values.
  static constexpr char MixedBytes[] = "a\0b\"c\\d\x01"
                                       "e\x1f\x7f tail";
  const std::string_view Mixed(MixedBytes, sizeof(MixedBytes) - 1);
  const std::string MixedQuoted =
      "\"a\\u0000b\\\"c\\\\d\\u0001e\\u001f\x7f tail\"";
  EXPECT_EQ(jsonQuote(Mixed), MixedQuoted);
  JsonWriter W;
  W.beginObject();
  W.key(All);
  W.value(Mixed);
  W.key(Mixed);
  W.value(std::string_view());
  W.key("literal");
  W.value("plain");
  W.endObject();
  const std::string Doc = W.take();
  EXPECT_EQ(Doc, "{" + Quoted + ":" + MixedQuoted + "," + MixedQuoted +
                     ":\"\",\"literal\":\"plain\"}");
  // The escapes decode back to the original bytes.
  JsonValue V = parseOk(Doc);
  ASSERT_TRUE(V.find(All));
  EXPECT_EQ(V.find(All)->Str, std::string(Mixed));
  ASSERT_TRUE(V.find(std::string(Mixed)));
  EXPECT_EQ(V.find(std::string(Mixed))->Str, "");
}
