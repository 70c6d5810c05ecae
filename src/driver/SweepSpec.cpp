//===- driver/SweepSpec.cpp - Batch sweep specification ---------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/SweepSpec.h"
#include "apps/Apps.h"
#include "frontend/Parser.h"

#include <memory>

using namespace dra;

namespace {

/// Reports one spec error; returns false so call sites can `return fail(...)`.
bool fail(DiagnosticEngine &DE, const char *Check, const std::string &Msg) {
  DE.report(Diagnostic(DiagSeverity::Error, "sweep-spec", Check) << Msg);
  return false;
}

/// Extracts an array of integers in [Lo, Hi] from \p V (key \p Key).
template <typename T>
bool intAxis(DiagnosticEngine &DE, const std::string &Key, const JsonValue &V,
             uint64_t Lo, uint64_t Hi, std::vector<T> &Out) {
  if (!V.isArray())
    return fail(DE, "wrong-type", "'" + Key + "' must be an array of integers");
  if (V.Arr.empty())
    return fail(DE, "empty-axis", "'" + Key + "' must name at least one value");
  Out.clear();
  for (const JsonValue &E : V.Arr) {
    if (!E.isNumber() || E.Num != double(uint64_t(E.Num)))
      return fail(DE, "wrong-type",
                  "'" + Key + "' entries must be non-negative integers");
    uint64_t U = uint64_t(E.Num);
    if (U < Lo || U > Hi)
      return fail(DE, "out-of-range",
                  "'" + Key + "' value " + std::to_string(U) +
                      " outside [" + std::to_string(Lo) + ", " +
                      std::to_string(Hi) + "]");
    Out.push_back(T(U));
  }
  return true;
}

/// Extracts an array of doubles in (Lo, Hi] from \p V (key \p Key).
bool doubleAxis(DiagnosticEngine &DE, const std::string &Key,
                const JsonValue &V, double Lo, double Hi,
                std::vector<double> &Out) {
  if (!V.isArray())
    return fail(DE, "wrong-type", "'" + Key + "' must be an array of numbers");
  if (V.Arr.empty())
    return fail(DE, "empty-axis", "'" + Key + "' must name at least one value");
  Out.clear();
  for (const JsonValue &E : V.Arr) {
    if (!E.isNumber())
      return fail(DE, "wrong-type", "'" + Key + "' entries must be numbers");
    if (!(E.Num > Lo) || !(E.Num <= Hi))
      return fail(DE, "out-of-range",
                  "'" + Key + "' value " + std::to_string(E.Num) +
                      " outside (" + std::to_string(Lo) + ", " +
                      std::to_string(Hi) + "]");
    Out.push_back(E.Num);
  }
  return true;
}

bool stringArray(DiagnosticEngine &DE, const std::string &Key,
                 const JsonValue &V, std::vector<std::string> &Out) {
  if (!V.isArray())
    return fail(DE, "wrong-type", "'" + Key + "' must be an array of strings");
  Out.clear();
  for (const JsonValue &E : V.Arr) {
    if (!E.isString())
      return fail(DE, "wrong-type", "'" + Key + "' entries must be strings");
    Out.push_back(E.Str);
  }
  return true;
}

} // namespace

std::optional<SweepSpec> SweepSpec::parse(const std::string &JsonText,
                                          DiagnosticEngine &DE) {
  JsonValue Doc;
  std::string Error;
  if (!parseJson(JsonText, Doc, Error)) {
    fail(DE, "syntax", "sweep spec is not valid JSON: " + Error);
    return std::nullopt;
  }
  if (!Doc.isObject()) {
    fail(DE, "wrong-type", "sweep spec must be a JSON object");
    return std::nullopt;
  }

  static const char *KnownKeys[] = {
      "schema",        "apps",          "files",
      "scale",         "schemes",       "procs",
      "stripe_factor", "stripe_unit_kb", "cache_blocks",
      "cache_policy",  "tpm_break_even_s", "drpm_window_requests",
      "block_bytes",   "verify"};
  bool Ok = true;
  for (const auto &[Key, Val] : Doc.Obj) {
    (void)Val;
    bool Known = false;
    for (const char *K : KnownKeys)
      Known |= Key == K;
    if (!Known)
      Ok = fail(DE, "unknown-key", "unknown sweep spec key '" + Key + "'");
  }

  SweepSpec Spec;
  if (const JsonValue *V = Doc.find("schema")) {
    if (!V->isString() || V->Str != "dra-sweep-spec-v1")
      Ok = fail(DE, "bad-schema",
                "'schema' must be the string \"dra-sweep-spec-v1\"");
  }

  if (const JsonValue *V = Doc.find("apps")) {
    std::vector<std::string> Names;
    if (!stringArray(DE, "apps", *V, Names)) {
      Ok = false;
    } else {
      for (const std::string &N : Names) {
        bool Found = false;
        for (const AppUnderTest &App : paperApps(1.0)) {
          if (N == App.Name) {
            Spec.Apps.push_back(N);
            Found = true;
            break;
          }
        }
        if (!Found)
          Ok = fail(DE, "unknown-app",
                    "unknown app '" + N +
                        "' (expected AST, FFT, Cholesky, Visuo, SCF or "
                        "RSense)");
      }
    }
  }
  if (const JsonValue *V = Doc.find("files"))
    Ok &= stringArray(DE, "files", *V, Spec.Files);

  if (const JsonValue *V = Doc.find("scale")) {
    if (!V->isNumber() || !(V->Num > 0.0) || !(V->Num <= 10.0))
      Ok = fail(DE, "out-of-range", "'scale' must be a number in (0, 10]");
    else
      Spec.Scale = V->Num;
  }

  if (const JsonValue *V = Doc.find("schemes")) {
    if (V->isString()) {
      if (V->Str == "all")
        Spec.Schemes = allSchemes();
      else if (V->Str == "single")
        Spec.Schemes = singleProcSchemes();
      else
        Ok = fail(DE, "unknown-scheme",
                  "'schemes' string form must be \"all\" or \"single\", got "
                  "'" + V->Str + "'");
    } else if (V->isArray()) {
      std::vector<std::string> Names;
      if (!stringArray(DE, "schemes", *V, Names)) {
        Ok = false;
      } else if (Names.empty()) {
        Ok = fail(DE, "empty-axis", "'schemes' must name at least one scheme");
      } else {
        Spec.Schemes.clear();
        for (const std::string &N : Names) {
          Scheme S;
          if (!schemeByName(N, S))
            Ok = fail(DE, "unknown-scheme", "unknown scheme '" + N + "'");
          else
            Spec.Schemes.push_back(S);
        }
      }
    } else {
      Ok = fail(DE, "wrong-type",
                "'schemes' must be an array of scheme names, \"all\" or "
                "\"single\"");
    }
  }

  if (const JsonValue *V = Doc.find("procs"))
    Ok &= intAxis(DE, "procs", *V, 1, 4096, Spec.Procs);
  if (const JsonValue *V = Doc.find("stripe_factor"))
    Ok &= intAxis(DE, "stripe_factor", *V, 1, 64, Spec.StripeFactors);
  if (const JsonValue *V = Doc.find("stripe_unit_kb")) {
    std::vector<uint64_t> Kb;
    if (intAxis(DE, "stripe_unit_kb", *V, 1, 1 << 20, Kb)) {
      Spec.StripeUnitBytes.clear();
      for (uint64_t K : Kb)
        Spec.StripeUnitBytes.push_back(K * 1024);
    } else {
      Ok = false;
    }
  }
  if (const JsonValue *V = Doc.find("cache_blocks"))
    Ok &= intAxis(DE, "cache_blocks", *V, 0, uint64_t(1) << 32,
                  Spec.CacheBlocks);
  if (const JsonValue *V = Doc.find("tpm_break_even_s"))
    Ok &= doubleAxis(DE, "tpm_break_even_s", *V, 0.0, 1e6, Spec.TpmBreakEvenS);
  if (const JsonValue *V = Doc.find("drpm_window_requests"))
    Ok &= intAxis(DE, "drpm_window_requests", *V, 1, 1000000000,
                  Spec.DrpmWindowRequests);

  if (const JsonValue *V = Doc.find("cache_policy")) {
    if (V->isString() && V->Str == "lru")
      Spec.CachePolicy = CachePolicyKind::Lru;
    else if (V->isString() && V->Str == "pa-lru")
      Spec.CachePolicy = CachePolicyKind::PaLru;
    else
      Ok = fail(DE, "unknown-cache-policy",
                "'cache_policy' must be \"lru\" or \"pa-lru\"");
  }
  if (const JsonValue *V = Doc.find("block_bytes")) {
    if (!V->isNumber() || V->Num != double(uint64_t(V->Num)) ||
        uint64_t(V->Num) < 512 || uint64_t(V->Num) > (uint64_t(1) << 30))
      Ok = fail(DE, "out-of-range",
                "'block_bytes' must be one integer in [512, 2^30]");
    else
      Spec.BlockBytes = uint64_t(V->Num);
  }
  if (const JsonValue *V = Doc.find("verify")) {
    if (V->isString() && V->Str == "off")
      Spec.Verify = VerifyLevel::Off;
    else if (V->isString() && V->Str == "cheap")
      Spec.Verify = VerifyLevel::Cheap;
    else if (V->isString() && V->Str == "full")
      Spec.Verify = VerifyLevel::Full;
    else
      Ok = fail(DE, "unknown-verify-level",
                "'verify' must be \"off\", \"cheap\" or \"full\"");
  }

  if (Spec.Apps.empty() && Spec.Files.empty())
    Ok = fail(DE, "no-programs",
              "sweep spec names no programs ('apps' and 'files' both empty)");

  if (!Ok)
    return std::nullopt;
  return Spec;
}

size_t SweepSpec::numJobs() const {
  return (Apps.size() + Files.size()) * Schemes.size() * Procs.size() *
         StripeFactors.size() * StripeUnitBytes.size() * CacheBlocks.size() *
         TpmBreakEvenS.size() * DrpmWindowRequests.size();
}

std::optional<std::vector<SweepJob>>
SweepSpec::expand(DiagnosticEngine &DE) const {
  // One program factory per listed program, in order: apps then files.
  // Each factory returns a *fresh* Program per call so concurrently
  // executing jobs never share mutable state.
  std::vector<std::pair<std::string, std::function<Program()>>> Programs;
  for (const std::string &Name : Apps) {
    for (const AppUnderTest &App : paperApps(Scale)) {
      if (App.Name == Name) {
        Programs.emplace_back(Name, App.Build);
        break;
      }
    }
  }
  for (const std::string &Path : Files) {
    std::string Error;
    std::optional<Program> P = Parser::parseFile(Path, Error);
    if (!P) {
      fail(DE, "file-parse", Path + ": " + Error);
      return std::nullopt;
    }
    auto Shared = std::make_shared<const Program>(std::move(*P));
    Programs.emplace_back(Path, [Shared] { return *Shared; });
  }

  std::vector<SweepJob> Jobs;
  Jobs.reserve(numJobs());
  for (const auto &[Name, Build] : Programs)
    for (Scheme S : Schemes)
      for (unsigned NP : Procs)
        for (unsigned SF : StripeFactors)
          for (uint64_t SU : StripeUnitBytes)
            for (uint64_t CB : CacheBlocks)
              for (double TB : TpmBreakEvenS)
                for (unsigned DW : DrpmWindowRequests) {
                  SweepJob J;
                  J.Index = Jobs.size();
                  J.Point = {Name, S,  NP, SF, SU,
                             CB,   CB ? CachePolicy : CachePolicyKind::None,
                             TB,   DW};
                  J.Build = Build;
                  PipelineConfig Cfg;
                  Cfg.NumProcs = NP;
                  Cfg.Striping.StripeFactor = SF;
                  Cfg.Striping.StripeUnitBytes = SU;
                  Cfg.BlockBytes = BlockBytes;
                  Cfg.Cache.Policy = J.Point.CachePolicy;
                  Cfg.Cache.CapacityBlocks = CB;
                  Cfg.Disk.TpmBreakEvenS = TB;
                  Cfg.Disk.DrpmWindowRequests = DW;
                  Cfg.Verify = Verify;
                  J.Config = Cfg;
                  Jobs.push_back(std::move(J));
                }
  return Jobs;
}

void SweepSpec::writeJson(JsonWriter &W) const {
  W.beginObject();
  W.key("schema");
  W.value("dra-sweep-spec-v1");
  W.key("apps");
  W.beginArray();
  for (const std::string &A : Apps)
    W.value(A);
  W.endArray();
  W.key("files");
  W.beginArray();
  for (const std::string &F : Files)
    W.value(F);
  W.endArray();
  W.key("scale");
  W.value(Scale);
  W.key("schemes");
  W.beginArray();
  for (Scheme S : Schemes)
    W.value(schemeName(S));
  W.endArray();
  W.key("procs");
  W.beginArray();
  for (unsigned P : Procs)
    W.value(P);
  W.endArray();
  W.key("stripe_factor");
  W.beginArray();
  for (unsigned F : StripeFactors)
    W.value(F);
  W.endArray();
  W.key("stripe_unit_bytes");
  W.beginArray();
  for (uint64_t U : StripeUnitBytes)
    W.value(U);
  W.endArray();
  W.key("cache_blocks");
  W.beginArray();
  for (uint64_t B : CacheBlocks)
    W.value(B);
  W.endArray();
  W.key("cache_policy");
  W.value(CachePolicy == CachePolicyKind::PaLru ? "pa-lru" : "lru");
  W.key("tpm_break_even_s");
  W.beginArray();
  for (double T : TpmBreakEvenS)
    W.value(T);
  W.endArray();
  W.key("drpm_window_requests");
  W.beginArray();
  for (unsigned D : DrpmWindowRequests)
    W.value(D);
  W.endArray();
  W.key("block_bytes");
  W.value(BlockBytes);
  W.key("verify");
  W.value(Verify == VerifyLevel::Off
              ? "off"
              : (Verify == VerifyLevel::Cheap ? "cheap" : "full"));
  W.endObject();
}
