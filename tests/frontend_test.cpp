//===- tests/frontend_test.cpp - lexer/parser tests ---------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/PrettyPrinter.h"

#include <gtest/gtest.h>

using namespace dra;

namespace {

std::optional<Program> parseOk(const std::string &Src) {
  std::string Error;
  auto P = Parser::parse(Src, Error);
  EXPECT_TRUE(P.has_value()) << Error;
  return P;
}

std::string parseFail(const std::string &Src) {
  std::string Error;
  auto P = Parser::parse(Src, Error);
  EXPECT_FALSE(P.has_value()) << "parse unexpectedly succeeded";
  return Error;
}

const char *Minimal = R"(
program mini
array A[8]
nest n {
  for i0 = 0 .. 7
  read A[i0]
}
)";

} // namespace

TEST(LexerTest, TokenizesAllKinds) {
  Lexer L("foo 12 3.5 [ ] { } = .. + - * # comment\nbar");
  std::vector<Token> T;
  std::string Error;
  ASSERT_TRUE(L.tokenize(T, Error)) << Error;
  std::vector<TokKind> Kinds;
  for (const Token &Tok : T)
    Kinds.push_back(Tok.Kind);
  EXPECT_EQ(Kinds,
            (std::vector<TokKind>{
                TokKind::Ident, TokKind::Number, TokKind::Number,
                TokKind::LBracket, TokKind::RBracket, TokKind::LBrace,
                TokKind::RBrace, TokKind::Equals, TokKind::DotDot,
                TokKind::Plus, TokKind::Minus, TokKind::Star, TokKind::Ident,
                TokKind::Eof}));
  EXPECT_DOUBLE_EQ(T[2].NumValue, 3.5);
  EXPECT_EQ(T[12].Text, "bar");
  EXPECT_EQ(T[12].Line, 2u);
}

TEST(LexerTest, TracksLineAndColumn) {
  Lexer L("a\n  bb\n   c");
  std::vector<Token> T;
  std::string Error;
  ASSERT_TRUE(L.tokenize(T, Error));
  EXPECT_EQ(T[0].Line, 1u);
  EXPECT_EQ(T[0].Col, 1u);
  EXPECT_EQ(T[1].Line, 2u);
  EXPECT_EQ(T[1].Col, 3u);
  EXPECT_EQ(T[2].Line, 3u);
  EXPECT_EQ(T[2].Col, 4u);
}

TEST(LexerTest, NumberBeforeDotDotIsNotDecimal) {
  Lexer L("0 .. 7");
  std::vector<Token> T;
  std::string Error;
  ASSERT_TRUE(L.tokenize(T, Error));
  ASSERT_EQ(T.size(), 4u); // 0, .., 7, eof
  EXPECT_EQ(T[1].Kind, TokKind::DotDot);
}

TEST(LexerTest, RejectsBadCharacters) {
  Lexer L("array A[8]$");
  std::vector<Token> T;
  std::string Error;
  EXPECT_FALSE(L.tokenize(T, Error));
  EXPECT_NE(Error.find("unexpected character"), std::string::npos);
}

TEST(LexerTest, RejectsDoubleDecimalPoint) {
  Lexer L("1.2.3");
  std::vector<Token> T;
  std::string Error;
  EXPECT_FALSE(L.tokenize(T, Error));
}

TEST(ParserTest, MinimalProgram) {
  auto P = parseOk(Minimal);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->name(), "mini");
  ASSERT_EQ(P->arrays().size(), 1u);
  EXPECT_EQ(P->array(0).DimsInTiles, (std::vector<int64_t>{8}));
  ASSERT_EQ(P->nests().size(), 1u);
  EXPECT_EQ(P->nest(0).numIterations(), 8u);
}

TEST(ParserTest, InclusiveBoundsBecomeHalfOpen) {
  auto P = parseOk(Minimal);
  const Loop &L = P->nest(0).loops()[0];
  EXPECT_EQ(L.Lower.constTerm(), 0);
  EXPECT_EQ(L.Upper.constTerm(), 8); // 0 .. 7 inclusive -> [0, 8)
}

TEST(ParserTest, AffineSubscriptsAndBounds) {
  auto P = parseOk(R"(
program aff
array A[16][32]
nest n compute 2.5 {
  for i0 = 1 .. 14
  for i1 = i0 .. 2*i0 + 3
  read A[i0 - 1][i1]
  write A[i0][-1 + i1]
}
)");
  ASSERT_TRUE(P);
  const LoopNest &N = P->nest(0);
  EXPECT_DOUBLE_EQ(N.computePerIterMs(), 2.5);
  EXPECT_EQ(N.loops()[1].Lower, iv(0));
  EXPECT_EQ(N.loops()[1].Upper, iv(0) * 2 + 4); // inclusive + 1
  EXPECT_EQ(N.accesses()[0].Subscripts[0], iv(0) - 1);
  EXPECT_EQ(N.accesses()[0].Subscripts[1], iv(1));
  EXPECT_EQ(N.accesses()[1].Subscripts[1], iv(1) - 1);
  EXPECT_EQ(N.accesses()[1].Kind, AccessKind::Write);
}

TEST(ParserTest, IvarTimesConstant) {
  auto P = parseOk(R"(
program s
array A[64]
nest n {
  for i0 = 0 .. 15
  read A[i0*4]
}
)");
  ASSERT_TRUE(P);
  EXPECT_EQ(P->nest(0).accesses()[0].Subscripts[0], AffineExpr::var(0, 4));
}

TEST(ParserTest, MultipleNestsAndArrays) {
  auto P = parseOk(R"(
program multi
array A[8][8]
array B[8][8]
nest first { for i0 = 0 .. 7 for i1 = 0 .. 7 read A[i0][i1] write B[i0][i1] }
nest second { for i0 = 0 .. 7 for i1 = 0 .. 7 read B[i1][i0] write A[i0][i1] }
)");
  ASSERT_TRUE(P);
  EXPECT_EQ(P->nests().size(), 2u);
  EXPECT_EQ(P->nest(1).name(), "second");
  // Round-trips through the pretty printer without losing structure.
  std::string PP = printProgram(*P);
  EXPECT_NE(PP.find("read  B[i1][i0]"), std::string::npos);
}

TEST(ParserTest, ErrorUnknownArray) {
  std::string E = parseFail(R"(
program p
array A[4]
nest n { for i0 = 0 .. 3 read B[i0] }
)");
  EXPECT_NE(E.find("unknown array 'B'"), std::string::npos);
}

TEST(ParserTest, ErrorRankMismatch) {
  std::string E = parseFail(R"(
program p
array A[4][4]
nest n { for i0 = 0 .. 3 read A[i0] }
)");
  EXPECT_NE(E.find("rank"), std::string::npos);
}

TEST(ParserTest, ErrorOutOfOrderIvars) {
  std::string E = parseFail(R"(
program p
array A[4]
nest n { for i1 = 0 .. 3 read A[i1] }
)");
  EXPECT_NE(E.find("expected i0"), std::string::npos);
}

TEST(ParserTest, ErrorNestWithoutLoops) {
  std::string E = parseFail(R"(
program p
array A[4]
nest n { read A[0] }
)");
  EXPECT_NE(E.find("no loops"), std::string::npos);
}

TEST(ParserTest, ErrorNestWithoutAccesses) {
  std::string E = parseFail(R"(
program p
array A[4]
nest n { for i0 = 0 .. 3 }
)");
  EXPECT_NE(E.find("no array accesses"), std::string::npos);
}

TEST(ParserTest, ErrorArrayAfterNest) {
  std::string E = parseFail(R"(
program p
array A[4]
nest n { for i0 = 0 .. 3 read A[i0] }
array B[4]
)");
  EXPECT_NE(E.find("before the first nest"), std::string::npos);
}

TEST(ParserTest, ErrorDuplicateArray) {
  std::string E = parseFail(R"(
program p
array A[4]
array A[8]
nest n { for i0 = 0 .. 3 read A[i0] }
)");
  EXPECT_NE(E.find("already declared"), std::string::npos);
}

TEST(ParserTest, ErrorDuplicateNest) {
  // Attribution, dra-compare --nests and check-regression key nests by
  // name, so two nests of one name would merge in every per-nest view.
  std::string E = parseFail(R"(
program p
array A[4]
nest sweep { for i0 = 0 .. 3 read A[i0] }
nest sweep { for i0 = 0 .. 3 write A[i0] }
)");
  EXPECT_NE(E.find("nest 'sweep' is already declared"), std::string::npos)
      << E;
}

TEST(ParserTest, ErrorDecimalArrayDim) {
  std::string E = parseFail(R"(
program p
array A[4.5]
nest n { for i0 = 0 .. 3 read A[i0] }
)");
  EXPECT_NE(E.find("integer"), std::string::npos);
}

TEST(ParserTest, ErrorIntegerLiteralOutOfRange) {
  std::string E = parseFail(R"(
program p
array A[4]
nest n { for i0 = 0 .. 99999999999999999999 read A[i0] }
)");
  EXPECT_NE(E.find("integer literal out of range"), std::string::npos) << E;
}

TEST(ParserTest, ErrorOutOfBoundsAccess) {
  std::string E = parseFail(R"(
program p
array A[4]
nest n { for i0 = 0 .. 3 read A[i0 + 1] }
)");
  EXPECT_NE(E.find("outside"), std::string::npos);
}

TEST(ParserTest, ErrorUnboundIvarInSubscript) {
  std::string E = parseFail(R"(
program p
array A[4][4]
nest n { for i0 = 0 .. 3 read A[i0][i1] }
)");
  EXPECT_NE(E.find("references i1"), std::string::npos);
}

TEST(ParserTest, ErrorUnboundIvarInBound) {
  std::string E = parseFail(R"(
program p
array A[4]
nest n {
  for i0 = 0 .. i1
  for i1 = 0 .. 3
  read A[i0]
}
)");
  EXPECT_NE(E.find("not an enclosing loop"), std::string::npos);
}

TEST(ParserTest, ErrorHasLineAndColumn) {
  std::string E = parseFail("program p\narray A[4]\nnest n { for i0 = 0 .. 3 "
                            "read Q[i0] }\n");
  // "line:col: message" for token-level errors.
  EXPECT_NE(E.find("3:"), std::string::npos);
}

TEST(ParserTest, ParseFileMissing) {
  std::string Error;
  EXPECT_FALSE(Parser::parseFile("/nonexistent/x.dra", Error).has_value());
  EXPECT_NE(Error.find("cannot open"), std::string::npos);
}

TEST(ParserTest, ParsedProgramRunsThroughPipeline) {
  auto P = parseOk(R"(
program endtoend
array U[24][24]
array V[24][24]
nest produce compute 1.0 {
  for i0 = 0 .. 23
  for i1 = 0 .. 23
  read U[i0][i1]
  write V[i0][i1]
}
nest consume compute 1.0 {
  for i0 = 0 .. 23
  for i1 = 0 .. 23
  read V[i1][i0]
  write U[i0][i1]
}
)");
  ASSERT_TRUE(P);
  IterationSpace Space(*P);
  EXPECT_EQ(Space.size(), 2u * 24u * 24u);
}
