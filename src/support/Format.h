//===- support/Format.h - Text table and number formatting -----*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight text formatting helpers used by the benchmark harnesses and
/// examples to print paper-style tables. Library code never prints; only
/// tools do, via these helpers.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SUPPORT_FORMAT_H
#define DRA_SUPPORT_FORMAT_H

#include <cstdint>
#include <string>
#include <vector>

namespace dra {

/// Appends \p Value to \p Out exactly as printf "%.17g" prints it
/// (max_digits10 significant digits, so the text reads back as the same
/// double; inf, -inf, nan and -nan spelled as printf spells them). The one
/// exact-double formatter: fmtExact, the JSON writer and the flame exporter
/// all append through it, via std::to_chars rather than printf.
void appendExactDouble(std::string &Out, double Value);

/// Appends the decimal digits of \p Value to \p Out (std::to_string's
/// text, without the temporary).
void appendInteger(std::string &Out, uint64_t Value);
void appendInteger(std::string &Out, int64_t Value);

/// Formats \p Value with \p Decimals fractional digits ("12.34").
std::string fmtDouble(double Value, int Decimals = 2);

/// Formats \p Value with max_digits10 significant digits, so reading the
/// text back recovers the exact double (appendExactDouble's text). For
/// values a reader must recover exactly (SLO diagnostics); human-facing
/// tables keep fmtDouble.
std::string fmtExact(double Value);

/// Formats \p Value as a percentage with two fractional digits ("18.17%");
/// "n/a" when \p Value is not finite (e.g. a 0/0 ratio over an empty run).
std::string fmtPercent(double Fraction);

/// Formats an integer with thousands separators ("148,526").
std::string fmtGrouped(int64_t Value);

/// Strictly parses \p Text as a base-10 unsigned integer in
/// [\p Min, \p Max]. Unlike atoi, rejects empty strings, signs, leading or
/// trailing junk, and out-of-range values; \p Out is written only on
/// success. For command-line flag validation.
bool parseUnsigned(const std::string &Text, unsigned &Out, unsigned Min = 0,
                   unsigned Max = 0xffffffffu);

/// One bar group of a BarChart: a label plus one value per series.
struct BarGroup {
  std::string Label;
  std::vector<double> Values;
};

/// ASCII bar-chart renderer in the style of the paper's Figs. 9/10:
/// grouped horizontal bars, one group per application, one bar per scheme.
///
/// \code
///   BarChart C({"TPM", "DRPM"}, 40);
///   C.addGroup({"AST", {1.0, 0.91}});
///   std::string S = C.render();
/// \endcode
class BarChart {
public:
  /// \param SeriesNames one name per bar within a group.
  /// \param Width bar length (characters) of the largest value.
  BarChart(std::vector<std::string> SeriesNames, unsigned Width = 50);

  void addGroup(BarGroup Group);

  /// Renders groups of horizontal bars scaled to the maximum value.
  std::string render() const;

private:
  std::vector<std::string> SeriesNames;
  unsigned Width;
  std::vector<BarGroup> Groups;
};

/// A simple fixed-column text table renderer.
///
/// Usage:
/// \code
///   TextTable T({"Name", "Energy (J)"});
///   T.addRow({"AST", fmtDouble(44581.1, 1)});
///   std::string S = T.render();
/// \endcode
class TextTable {
public:
  explicit TextTable(std::vector<std::string> Header);

  /// Appends one row; must have the same arity as the header.
  void addRow(std::vector<std::string> Row);

  /// Renders the table with padded columns and a header separator.
  std::string render() const;

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace dra

#endif // DRA_SUPPORT_FORMAT_H
