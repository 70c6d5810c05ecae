//===- support/Format.cpp - Text table and number formatting -------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"
#include "support/IterVec.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

using namespace dra;

std::string dra::toString(const IterVec &V) {
  std::string S = "(";
  for (size_t I = 0, E = V.size(); I != E; ++I) {
    if (I != 0)
      S += ", ";
    S += std::to_string(V[I]);
  }
  S += ")";
  return S;
}

std::string dra::fmtDouble(double Value, int Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, Value);
  return Buf;
}

void dra::appendExactDouble(std::string &Out, double Value) {
  // to_chars(general, precision) is specified as printf "%.<precision>g",
  // non-finite spellings included. max_digits10 for IEEE-754 binary64: 17
  // significant digits always round-trip text -> double -> text exactly.
  // The longest output, "-2.2250738585072014e-308", is 24 characters.
  char Buf[32];
  std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), Value,
                                         std::chars_format::general, 17);
  assert(R.ec == std::errc() && "buffer holds every exact-double rendering");
  Out.append(Buf, size_t(R.ptr - Buf));
}

template <typename IntT>
static void appendIntegerImpl(std::string &Out, IntT Value) {
  char Buf[24]; // 20 digits of UINT64_MAX, or a sign and 19 digits.
  std::to_chars_result R = std::to_chars(Buf, Buf + sizeof(Buf), Value);
  assert(R.ec == std::errc() && "buffer holds every 64-bit integer");
  Out.append(Buf, size_t(R.ptr - Buf));
}

void dra::appendInteger(std::string &Out, uint64_t Value) {
  appendIntegerImpl(Out, Value);
}

void dra::appendInteger(std::string &Out, int64_t Value) {
  appendIntegerImpl(Out, Value);
}

std::string dra::fmtExact(double Value) {
  std::string Out;
  appendExactDouble(Out, Value);
  return Out;
}

std::string dra::fmtPercent(double Fraction) {
  // A ratio over an empty run (0/0) has no percentage to show.
  if (!std::isfinite(Fraction))
    return "n/a";
  return fmtDouble(Fraction * 100.0, 2) + "%";
}

std::string dra::fmtGrouped(int64_t Value) {
  // Negate in the unsigned domain: -INT64_MIN does not fit in int64_t.
  uint64_t Magnitude =
      Value < 0 ? 0 - uint64_t(Value) : uint64_t(Value);
  std::string Digits = std::to_string(Magnitude);
  std::string Out;
  Out.reserve(Digits.size() + Digits.size() / 3 + 1);
  int Count = 0;
  for (auto It = Digits.rbegin(); It != Digits.rend(); ++It) {
    if (Count != 0 && Count % 3 == 0)
      Out += ',';
    Out += *It;
    ++Count;
  }
  if (Value < 0)
    Out += '-';
  std::reverse(Out.begin(), Out.end());
  return Out;
}

bool dra::parseUnsigned(const std::string &Text, unsigned &Out, unsigned Min,
                        unsigned Max) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + uint64_t(C - '0');
    if (V > Max) // Also bounds V: no later digit can bring it back in range.
      return false;
  }
  if (V < Min)
    return false;
  Out = unsigned(V);
  return true;
}

BarChart::BarChart(std::vector<std::string> SeriesNames, unsigned Width)
    : SeriesNames(std::move(SeriesNames)), Width(Width) {
  assert(!this->SeriesNames.empty() && Width > 0 && "empty chart shape");
}

void BarChart::addGroup(BarGroup Group) {
  assert(Group.Values.size() == SeriesNames.size() &&
         "one value per series required");
  Groups.push_back(std::move(Group));
}

std::string BarChart::render() const {
  double Max = 0.0;
  size_t NameWidth = 0;
  for (const std::string &S : SeriesNames)
    NameWidth = std::max(NameWidth, S.size());
  for (const BarGroup &G : Groups)
    for (double V : G.Values)
      Max = std::max(Max, V);
  if (Max <= 0.0)
    Max = 1.0;

  std::string Out;
  for (const BarGroup &G : Groups) {
    Out += G.Label + "\n";
    for (size_t S = 0; S != SeriesNames.size(); ++S) {
      double V = G.Values[S];
      // Clamp before converting: a negative value cast to unsigned is UB.
      double Scaled = V <= 0.0 ? 0.0 : V / Max * Width + 0.5;
      unsigned Len = unsigned(Scaled);
      Out += "  " + SeriesNames[S] +
             std::string(NameWidth - SeriesNames[S].size(), ' ') + " |" +
             std::string(Len, '#') + " " + fmtDouble(V, 3) + "\n";
    }
  }
  return Out;
}

TextTable::TextTable(std::vector<std::string> Header)
    : Header(std::move(Header)) {}

void TextTable::addRow(std::vector<std::string> Row) {
  assert(Row.size() == Header.size() && "row arity mismatch");
  Rows.push_back(std::move(Row));
}

std::string TextTable::render() const {
  std::vector<size_t> Width(Header.size(), 0);
  for (size_t C = 0; C != Header.size(); ++C)
    Width[C] = Header[C].size();
  for (const auto &Row : Rows)
    for (size_t C = 0; C != Row.size(); ++C)
      Width[C] = std::max(Width[C], Row[C].size());

  auto RenderRow = [&](const std::vector<std::string> &Row) {
    std::string Line;
    for (size_t C = 0; C != Row.size(); ++C) {
      Line += Row[C];
      if (C + 1 != Row.size())
        Line += std::string(Width[C] - Row[C].size() + 2, ' ');
    }
    Line += '\n';
    return Line;
  };

  std::string Out = RenderRow(Header);
  size_t Total = 0;
  for (size_t C = 0; C != Width.size(); ++C)
    Total += Width[C] + (C + 1 != Width.size() ? 2 : 0);
  Out += std::string(Total, '-') + '\n';
  for (const auto &Row : Rows)
    Out += RenderRow(Row);
  return Out;
}
