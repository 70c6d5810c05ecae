//===- frontend/Parser.cpp - Pseudo-language parser -------------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "analysis/RegionAnalysis.h"
#include "ir/ProgramBuilder.h"
#include "support/FileIO.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

using namespace dra;

namespace {

/// Recursive-descent parser state over the token stream.
class ParserImpl {
public:
  ParserImpl(std::vector<Token> Tokens, std::string &Error)
      : Tokens(std::move(Tokens)), Error(Error) {}

  std::optional<Program> run() {
    std::optional<Program> Out;
    if (!parseProgram(Out))
      return std::nullopt;
    return Out;
  }

private:
  std::vector<Token> Tokens;
  std::string &Error;
  size_t Pos = 0;
  std::map<std::string, ArrayId> ArraysByName;
  std::map<std::string, unsigned> ArrayRank;
  /// Attribution, the nest view and check-regression key nests by name.
  std::set<std::string> NestNames;

  const Token &peek() const { return Tokens[Pos]; }
  const Token &next() { return Tokens[Pos++]; }

  bool fail(const std::string &Msg) {
    const Token &T = peek();
    Error = std::to_string(T.Line) + ":" + std::to_string(T.Col) + ": " + Msg;
    return false;
  }

  bool expect(TokKind K, const char *What) {
    if (!peek().is(K))
      return fail(std::string("expected ") + What + ", found '" + peek().Text +
                  "'");
    ++Pos;
    return true;
  }

  /// Parses "iN" into a depth; returns false if the ident is not an ivar.
  static bool parseIvarName(const std::string &S, unsigned &Depth) {
    if (S.size() < 2 || S[0] != 'i')
      return false;
    for (size_t I = 1; I != S.size(); ++I)
      if (!std::isdigit(static_cast<unsigned char>(S[I])))
        return false;
    Depth = unsigned(std::stoul(S.substr(1)));
    return true;
  }

  bool parseInt(int64_t &V) {
    if (!peek().is(TokKind::Number))
      return fail("expected an integer");
    double D = peek().NumValue;
    // Converting a double outside int64_t's range is undefined behaviour.
    if (!(D >= -0x1p63 && D < 0x1p63))
      return fail("integer literal out of range");
    V = int64_t(D);
    if (double(V) != D)
      return fail("expected an integer, found a decimal number");
    ++Pos;
    return true;
  }

  /// term := INT | INT '*' IVAR | IVAR ['*' INT]
  bool parseTerm(AffineExpr &Out, int64_t Sign) {
    if (peek().is(TokKind::Number)) {
      int64_t C = 0;
      if (!parseInt(C))
        return false;
      if (peek().is(TokKind::Star)) {
        ++Pos;
        unsigned Depth = 0;
        if (!peek().is(TokKind::Ident) || !parseIvarName(peek().Text, Depth))
          return fail("expected an induction variable after '*'");
        ++Pos;
        Out = Out + AffineExpr::var(Depth, Sign * C);
        return true;
      }
      Out = Out + Sign * C;
      return true;
    }
    if (peek().is(TokKind::Ident)) {
      unsigned Depth = 0;
      if (!parseIvarName(peek().Text, Depth))
        return fail("expected an induction variable or number, found '" +
                    peek().Text + "'");
      ++Pos;
      int64_t Coeff = 1;
      if (peek().is(TokKind::Star)) {
        ++Pos;
        if (!parseInt(Coeff))
          return false;
      }
      Out = Out + AffineExpr::var(Depth, Sign * Coeff);
      return true;
    }
    return fail("expected an affine term");
  }

  /// expr := ['-'] term (('+' | '-') term)*
  bool parseExpr(AffineExpr &Out) {
    Out = AffineExpr::constant(0);
    int64_t Sign = 1;
    if (peek().is(TokKind::Minus)) {
      Sign = -1;
      ++Pos;
    }
    if (!parseTerm(Out, Sign))
      return false;
    while (peek().is(TokKind::Plus) || peek().is(TokKind::Minus)) {
      Sign = peek().is(TokKind::Plus) ? 1 : -1;
      ++Pos;
      if (!parseTerm(Out, Sign))
        return false;
    }
    return true;
  }

  bool parseArray(ProgramBuilder &B) {
    ++Pos; // "array"
    if (!peek().is(TokKind::Ident))
      return fail("expected an array name");
    std::string Name = next().Text;
    if (ArraysByName.count(Name))
      return fail("array '" + Name + "' is already declared");
    std::vector<int64_t> Dims;
    int64_t Tiles = 1;
    while (peek().is(TokKind::LBracket)) {
      ++Pos;
      int64_t D = 0;
      if (!parseInt(D))
        return false;
      if (D <= 0)
        return fail("array dimension must be positive");
      // ArrayInfo::numTiles multiplies the dimensions in int64_t.
      if (__builtin_mul_overflow(Tiles, D, &Tiles))
        return fail("array '" + Name + "' has more than " +
                    std::to_string(INT64_MAX) + " tiles");
      Dims.push_back(D);
      if (!expect(TokKind::RBracket, "']'"))
        return false;
    }
    if (Dims.empty())
      return fail("array '" + Name + "' needs at least one dimension");
    ArrayRank[Name] = unsigned(Dims.size());
    ArraysByName[Name] = B.addArray(Name, std::move(Dims));
    return true;
  }

  bool parseNest(ProgramBuilder &B) {
    ++Pos; // "nest"
    if (!peek().is(TokKind::Ident))
      return fail("expected a nest name");
    std::string Name = next().Text;
    if (!NestNames.insert(Name).second)
      return fail("nest '" + Name + "' is already declared");
    double ComputeMs = 1.0;
    if (peek().isIdent("compute")) {
      ++Pos;
      if (!peek().is(TokKind::Number))
        return fail("expected a compute time after 'compute'");
      ComputeMs = next().NumValue;
    }
    if (!expect(TokKind::LBrace, "'{'"))
      return false;

    B.beginNest(Name, ComputeMs);
    unsigned Depth = 0;
    while (peek().isIdent("for")) {
      ++Pos;
      unsigned IvDepth = 0;
      if (!peek().is(TokKind::Ident) || !parseIvarName(peek().Text, IvDepth))
        return fail("expected an induction variable after 'for'");
      if (IvDepth != Depth)
        return fail("loops must introduce i0, i1, ... in order; expected i" +
                    std::to_string(Depth));
      ++Pos;
      if (!expect(TokKind::Equals, "'='"))
        return false;
      AffineExpr Lo, Hi;
      if (!parseExpr(Lo))
        return false;
      if (!expect(TokKind::DotDot, "'..'"))
        return false;
      if (!parseExpr(Hi))
        return false;
      // Source bounds are inclusive; the IR uses half-open ranges.
      B.loop(Lo, Hi + 1);
      ++Depth;
    }
    if (Depth == 0)
      return fail("nest '" + Name + "' has no loops");

    unsigned NumAccesses = 0;
    while (peek().isIdent("read") || peek().isIdent("write")) {
      bool IsWrite = peek().Text == "write";
      ++Pos;
      if (!peek().is(TokKind::Ident))
        return fail("expected an array name");
      std::string Arr = next().Text;
      auto It = ArraysByName.find(Arr);
      if (It == ArraysByName.end())
        return fail("unknown array '" + Arr + "'");
      std::vector<AffineExpr> Subs;
      while (peek().is(TokKind::LBracket)) {
        ++Pos;
        AffineExpr E;
        if (!parseExpr(E))
          return false;
        Subs.push_back(E);
        if (!expect(TokKind::RBracket, "']'"))
          return false;
      }
      if (Subs.size() != ArrayRank[Arr])
        return fail("array '" + Arr + "' has rank " +
                    std::to_string(ArrayRank[Arr]) + ", got " +
                    std::to_string(Subs.size()) + " subscripts");
      if (IsWrite)
        B.write(It->second, std::move(Subs));
      else
        B.read(It->second, std::move(Subs));
      ++NumAccesses;
    }
    if (NumAccesses == 0)
      return fail("nest '" + Name + "' has no array accesses");
    if (!expect(TokKind::RBrace, "'}'"))
      return false;
    B.endNest();
    return true;
  }

  bool parseProgram(std::optional<Program> &Out) {
    if (!peek().isIdent("program"))
      return fail("expected 'program'");
    ++Pos;
    if (!peek().is(TokKind::Ident))
      return fail("expected a program name");
    ProgramBuilder B(next().Text);

    bool SawNest = false;
    while (!peek().is(TokKind::Eof)) {
      if (peek().isIdent("array")) {
        if (SawNest)
          return fail("declare all arrays before the first nest");
        if (!parseArray(B))
          return false;
      } else if (peek().isIdent("nest")) {
        SawNest = true;
        if (!parseNest(B))
          return false;
      } else {
        return fail("expected 'array' or 'nest', found '" + peek().Text +
                    "'");
      }
    }
    if (!SawNest)
      return fail("program has no nests");
    Out = B.build();
    return true;
  }
};

} // namespace

/// Post-parse semantic check: loop bounds and subscripts may only reference
/// induction variables that are bound at their position (a bound of loop k
/// only outer loops; a subscript any loop of the nest). Must run before the
/// footprint analysis, which asserts on unbound references.
static bool validateIvarDepths(const Program &P, std::string &Error) {
  for (const LoopNest &Nest : P.nests()) {
    for (unsigned D = 0; D != Nest.depth(); ++D) {
      const Loop &L = Nest.loops()[D];
      unsigned MaxRef = std::max(L.Lower.numCoeffs(), L.Upper.numCoeffs());
      if (MaxRef > D) {
        Error = "nest '" + Nest.name() + "': bound of loop i" +
                std::to_string(D) + " references i" +
                std::to_string(MaxRef - 1) +
                ", which is not an enclosing loop";
        return false;
      }
    }
    for (const ArrayAccess &A : Nest.accesses())
      for (const AffineExpr &S : A.Subscripts)
        if (S.numCoeffs() > Nest.depth()) {
          Error = "nest '" + Nest.name() + "': subscript of '" +
                  P.array(A.Array).Name + "' references i" +
                  std::to_string(S.numCoeffs() - 1) + " but the nest has " +
                  std::to_string(Nest.depth()) + " loops";
          return false;
        }
  }
  return true;
}

/// Post-parse semantic check: every access footprint must stay inside its
/// array (the compiler and simulator assume in-bounds regular codes).
static bool validateBounds(const Program &P, std::string &Error) {
  for (const LoopNest &Nest : P.nests()) {
    auto Ranges = RegionAnalysis::loopRanges(Nest);
    for (const ArrayAccess &A : Nest.accesses()) {
      Box F = RegionAnalysis::accessFootprint(A, Ranges);
      const ArrayInfo &Arr = P.array(A.Array);
      for (size_t D = 0; D != F.Dims.size(); ++D) {
        if (F.Dims[D].empty())
          continue; // An empty loop range touches nothing.
        if (F.Dims[D].Lo < 0 || F.Dims[D].Hi >= Arr.DimsInTiles[D]) {
          Error = "nest '" + Nest.name() + "': access to '" + Arr.Name +
                  "' spans [" + std::to_string(F.Dims[D].Lo) + ", " +
                  std::to_string(F.Dims[D].Hi) + "] in dimension " +
                  std::to_string(D) + ", outside [0, " +
                  std::to_string(Arr.DimsInTiles[D] - 1) + "]";
          return false;
        }
      }
    }
  }
  return true;
}

std::optional<Program> Parser::parse(const std::string &Source,
                                     std::string &Error) {
  Lexer Lex(Source);
  std::vector<Token> Tokens;
  if (!Lex.tokenize(Tokens, Error))
    return std::nullopt;
  ParserImpl Impl(std::move(Tokens), Error);
  std::optional<Program> P = Impl.run();
  if (P && (!validateIvarDepths(*P, Error) || !validateBounds(*P, Error)))
    return std::nullopt;
  return P;
}

std::optional<Program> Parser::parseFile(const std::string &Path,
                                         std::string &Error) {
  std::optional<std::string> Source = readFile(Path);
  if (!Source) {
    Error = "cannot open '" + Path + "'";
    return std::nullopt;
  }
  return parse(*Source, Error);
}
