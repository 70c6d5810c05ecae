//===- support/Diagnostic.h - Structured diagnostics ------------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured diagnostics in the style of LLVM's optimization-remark
/// infrastructure: every message a pass wants to surface is a Diagnostic
/// with a severity, an originating pass, a machine-readable check name, a
/// structured location (program / nest / iteration / disk), and free text.
/// Diagnostics flow through a DiagnosticEngine to registered consumers — a
/// CollectingConsumer for tests and a StreamingConsumer for the CLI.
///
/// Library code never prints; it reports diagnostics and lets the consumer
/// decide what to do with them.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SUPPORT_DIAGNOSTIC_H
#define DRA_SUPPORT_DIAGNOSTIC_H

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace dra {

/// Severity of a diagnostic, most severe first. Remark mirrors LLVM's
/// optimization remarks: a successful-analysis note, not a problem.
enum class DiagSeverity { Error, Warning, Remark, Note };

/// Lower-case severity name ("error", "warning", "remark", "note").
const char *severityName(DiagSeverity S);

/// Structured location of a diagnostic inside the compilation model. Every
/// field is optional (negative means "not applicable"): a schedule-legality
/// error names iterations, a layout error names a disk, an IR error names a
/// nest. Kept as plain integers so the support layer stays independent of
/// the IR headers.
struct DiagLocation {
  std::string ProgramName; ///< Owning program; empty when not applicable.
  int64_t Nest = -1;       ///< NestId, or -1.
  int64_t Iter = -1;       ///< GlobalIter (flat iteration id), or -1.
  int64_t Disk = -1;       ///< I/O node index, or -1.

  DiagLocation() = default;
  explicit DiagLocation(std::string ProgramName, int64_t Nest = -1,
                        int64_t Iter = -1, int64_t Disk = -1)
      : ProgramName(std::move(ProgramName)), Nest(Nest), Iter(Iter),
        Disk(Disk) {}

  bool empty() const {
    return ProgramName.empty() && Nest < 0 && Iter < 0 && Disk < 0;
  }

  /// Renders e.g. "ast:nest2:iter41:disk3"; empty string when empty().
  std::string toString() const;
};

/// One structured diagnostic. Built fluently:
/// \code
///   DE.report(Diagnostic(DiagSeverity::Error, "schedule-verifier",
///                        "duplicate-iteration")
///                 .at(Loc)
///             << "iteration " << G << " appears twice");
/// \endcode
class Diagnostic {
public:
  /// The message buffer starts at a capacity that holds any one-line
  /// message, so building one allocates once however many digits its
  /// numbers have.
  Diagnostic(DiagSeverity Sev, std::string Pass, std::string Check)
      : Sev(Sev), Pass(std::move(Pass)), Check(std::move(Check)) {
    Msg.reserve(MessageCapacity);
  }

  DiagSeverity severity() const { return Sev; }
  /// The pass that produced the diagnostic, e.g. "schedule-verifier".
  const std::string &passName() const { return Pass; }
  /// Machine-readable check slug, e.g. "duplicate-iteration". Tests match
  /// on this, never on message text.
  const std::string &checkName() const { return Check; }
  const DiagLocation &location() const { return Loc; }
  const std::string &message() const { return Msg; }

  /// Attaches a structured location.
  Diagnostic &at(DiagLocation L) {
    Loc = std::move(L);
    return *this;
  }

  Diagnostic &operator<<(const std::string &S) {
    Msg += S;
    return *this;
  }
  Diagnostic &operator<<(const char *S) {
    Msg += S;
    return *this;
  }
  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  Diagnostic &operator<<(T V) {
    Msg += std::to_string(V);
    return *this;
  }

  /// One-line rendering:
  /// "error: [schedule-verifier:duplicate-iteration] ast:iter41: message".
  std::string render() const;

private:
  static constexpr size_t MessageCapacity = 256;

  DiagSeverity Sev;
  std::string Pass;
  std::string Check;
  DiagLocation Loc;
  std::string Msg;
};

/// Receives every diagnostic reported to an engine.
class DiagnosticConsumer {
public:
  virtual ~DiagnosticConsumer() = default;
  virtual void handle(const Diagnostic &D) = 0;
};

/// Stores every diagnostic for later inspection (the test consumer).
class CollectingConsumer final : public DiagnosticConsumer {
public:
  void handle(const Diagnostic &D) override { Diags.push_back(D); }

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }
  void clear() { Diags.clear(); }

  /// First collected diagnostic with check slug \p Check, or nullptr.
  const Diagnostic *findCheck(const std::string &Check) const;
  /// Number of collected diagnostics with check slug \p Check.
  unsigned countCheck(const std::string &Check) const;
  /// Number of collected diagnostics of severity \p Sev.
  unsigned countSeverity(DiagSeverity Sev) const;

private:
  std::vector<Diagnostic> Diags;
};

/// Writes each diagnostic as one rendered line to a stream (the CLI
/// consumer). Optionally filters out severities below a threshold, e.g.
/// errors-and-warnings-only.
class StreamingConsumer final : public DiagnosticConsumer {
public:
  /// \param OS destination stream (not owned; must outlive the consumer).
  /// \param MinSeverity least severe severity to print (Note prints all).
  explicit StreamingConsumer(std::ostream &OS,
                             DiagSeverity MinSeverity = DiagSeverity::Note)
      : OS(OS), MinSeverity(MinSeverity) {}

  void handle(const Diagnostic &D) override;

private:
  std::ostream &OS;
  DiagSeverity MinSeverity;
};

/// Routes diagnostics to consumers and keeps per-severity counts. Consumers
/// are not owned and must outlive the engine.
class DiagnosticEngine {
public:
  void addConsumer(DiagnosticConsumer *C) { Consumers.push_back(C); }

  void report(const Diagnostic &D);

  uint64_t count(DiagSeverity S) const {
    return Counts[unsigned(S)];
  }
  uint64_t numErrors() const { return count(DiagSeverity::Error); }
  bool hasErrors() const { return numErrors() != 0; }
  uint64_t total() const;

private:
  std::vector<DiagnosticConsumer *> Consumers;
  uint64_t Counts[4] = {0, 0, 0, 0};
};

/// Thrown by fail-fast verification (Pipeline with VerifyLevel != Off) when
/// a verifier reports errors. Carries the stage that failed and a rendered
/// summary; the full structured diagnostics stay in the engine's consumers.
class VerificationError : public std::runtime_error {
public:
  VerificationError(std::string Stage, const std::string &What)
      : std::runtime_error(What), Stage(std::move(Stage)) {}

  /// The pipeline stage that failed, e.g. "ir", "layout", "schedule".
  const std::string &stage() const { return Stage; }

private:
  std::string Stage;
};

} // namespace dra

#endif // DRA_SUPPORT_DIAGNOSTIC_H
