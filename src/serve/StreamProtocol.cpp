//===- serve/StreamProtocol.cpp - Timestep-framed request streams ----------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/StreamProtocol.h"

#include "support/FileIO.h"
#include "support/Json.h"

#include <cmath>
#include <filesystem>

using namespace dra;

const char *dra::streamOpName(StreamOp Op) {
  switch (Op) {
  case StreamOp::Exec:
    return "exec";
  case StreamOp::Write:
    return "write";
  case StreamOp::Read:
    return "read";
  case StreamOp::Delete:
    return "delete";
  }
  return "?";
}

namespace {

/// Collects structural errors under the "stream-session" pass. Every helper
/// returns false after reporting, so parse code reads as straight-line
/// validation.
class Ctx {
public:
  explicit Ctx(DiagnosticEngine &DE) : DE(DE) {}

  bool fail(const std::string &Check, const std::string &Msg) {
    DE.report(Diagnostic(DiagSeverity::Error, "stream-session", Check)
              << Msg);
    return false;
  }

private:
  DiagnosticEngine &DE;
};

/// A JSON number that must be a non-negative integer fitting uint64.
bool asU64(const JsonValue &V, uint64_t &Out) {
  if (!V.isNumber() || !std::isfinite(V.Num) || V.Num < 0.0 ||
      V.Num != std::floor(V.Num) || V.Num > 1.8e19)
    return false;
  Out = uint64_t(V.Num);
  return true;
}

bool opByName(const std::string &Name, StreamOp &Out) {
  for (StreamOp Op : {StreamOp::Exec, StreamOp::Write, StreamOp::Read,
                      StreamOp::Delete}) {
    if (Name == streamOpName(Op)) {
      Out = Op;
      return true;
    }
  }
  return false;
}

bool parseRequest(const JsonValue &R, size_t Tick, size_t Index, Ctx &C,
                  StreamRequest &Out) {
  std::string Where =
      "tick " + std::to_string(Tick) + " request " + std::to_string(Index);
  if (!R.isObject())
    return C.fail("stream-bad-request", Where + ": not an object");
  const JsonValue *Op = R.find("op");
  if (!Op || !Op->isString() || !opByName(Op->Str, Out.Op))
    return C.fail("stream-bad-op",
                  Where + ": 'op' must be one of exec, write, read, delete");
  if (const JsonValue *Client = R.find("client")) {
    uint64_t Id = 0;
    if (!asU64(*Client, Id) || Id > 0xffffffffu)
      return C.fail("stream-bad-client",
                    Where + ": 'client' must be a 32-bit unsigned integer");
    Out.Client = uint32_t(Id);
  }
  if (Out.Op == StreamOp::Exec) {
    const JsonValue *First = R.find("first");
    const JsonValue *Count = R.find("count");
    if (!First || !asU64(*First, Out.First))
      return C.fail("stream-exec-range",
                    Where + ": exec needs a non-negative integer 'first'");
    if (!Count || !asU64(*Count, Out.Count) || Out.Count == 0)
      return C.fail("stream-exec-range",
                    Where + ": exec needs a positive integer 'count'");
    if (Out.First + Out.Count < Out.First)
      return C.fail("stream-exec-range", Where + ": exec range overflows");
    if (R.find("object") || R.find("tiles"))
      return C.fail("stream-bad-request",
                    Where + ": exec takes no 'object' or 'tiles'");
    return true;
  }
  const JsonValue *Object = R.find("object");
  if (!Object || !Object->isString() || Object->Str.empty())
    return C.fail("stream-bad-object",
                  Where + ": " + streamOpName(Out.Op) +
                      " needs a non-empty string 'object'");
  Out.Object = Object->Str;
  if (R.find("first") || R.find("count"))
    return C.fail("stream-bad-request",
                  Where + ": object ops take no 'first' or 'count'");
  if (Out.Op == StreamOp::Write) {
    const JsonValue *Tiles = R.find("tiles");
    if (!Tiles || !asU64(*Tiles, Out.Tiles) || Out.Tiles == 0)
      return C.fail("stream-bad-object",
                    Where + ": write needs a positive integer 'tiles'");
  } else if (R.find("tiles")) {
    return C.fail("stream-bad-request",
                  Where + ": only write takes 'tiles'");
  }
  return true;
}

bool parseConfig(const JsonValue &Doc, Ctx &C, StreamSessionConfig &Out) {
  const JsonValue *Config = Doc.find("config");
  if (!Config)
    return true; // All defaults.
  if (!Config->isObject())
    return C.fail("stream-bad-config", "'config' must be an object");
  for (const auto &[Key, Val] : Config->Obj) {
    uint64_t U = 0;
    if (Key == "scheme") {
      if (!Val.isString())
        return C.fail("stream-bad-config", "'scheme' must be a string");
      Out.SchemeName = Val.Str;
    } else if (Key == "stripe_factor") {
      if (!asU64(Val, U) || U == 0 || U > 64)
        return C.fail("stream-bad-config",
                      "'stripe_factor' must be an integer in [1, 64]");
      Out.StripeFactor = unsigned(U);
    } else if (Key == "stripe_unit_kb") {
      if (!asU64(Val, U) || U == 0 || U > (1u << 20))
        return C.fail("stream-bad-config",
                      "'stripe_unit_kb' must be an integer in [1, 2^20]");
      Out.StripeUnitKb = U;
    } else if (Key == "tick_budget") {
      if (!asU64(Val, U))
        return C.fail("stream-bad-config",
                      "'tick_budget' must be a non-negative integer");
      Out.TickBudget = U;
    } else if (Key == "scratch_tiles") {
      if (!asU64(Val, U) || U > (uint64_t(1) << 32))
        return C.fail("stream-bad-config",
                      "'scratch_tiles' must be an integer in [0, 2^32]");
      Out.ScratchTiles = U;
    } else {
      return C.fail("stream-bad-config", "unknown config key '" + Key + "'");
    }
  }
  return true;
}

bool parseProgram(const JsonValue &Doc, const std::string &BaseDir, Ctx &C,
                  std::string &Source) {
  const JsonValue *Prog = Doc.find("program");
  if (!Prog || !Prog->isObject())
    return C.fail("stream-bad-program",
                  "missing 'program' object ({\"source\": ...} or "
                  "{\"file\": ...})");
  const JsonValue *Src = Prog->find("source");
  const JsonValue *File = Prog->find("file");
  if ((Src != nullptr) == (File != nullptr))
    return C.fail("stream-bad-program",
                  "'program' needs exactly one of 'source' and 'file'");
  if (Src) {
    if (!Src->isString() || Src->Str.empty())
      return C.fail("stream-bad-program",
                    "'program.source' must be a non-empty string");
    Source = Src->Str;
    return true;
  }
  if (!File->isString() || File->Str.empty())
    return C.fail("stream-bad-program",
                  "'program.file' must be a non-empty string");
  std::filesystem::path Path(File->Str);
  if (Path.is_relative() && !BaseDir.empty())
    Path = std::filesystem::path(BaseDir) / Path;
  std::optional<std::string> Text = readFile(Path.string());
  if (!Text || Text->empty())
    return C.fail("stream-bad-program",
                  "cannot read program file '" + Path.string() + "'");
  Source = std::move(*Text);
  return true;
}

} // namespace

std::optional<StreamSession>
dra::parseStreamSession(const std::string &Text, DiagnosticEngine &DE,
                        const std::string &BaseDir) {
  Ctx C(DE);
  JsonValue Doc;
  std::string Error;
  if (!parseJson(Text, Doc, Error)) {
    C.fail("stream-parse", Error);
    return std::nullopt;
  }
  if (!Doc.isObject()) {
    C.fail("stream-bad-schema", "document is not a JSON object");
    return std::nullopt;
  }
  const JsonValue *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() ||
      (Schema->Str != "dra-stream-v1" && Schema->Str != "dra-session-v1")) {
    C.fail("stream-bad-schema",
           "'schema' must be \"dra-stream-v1\" or \"dra-session-v1\"");
    return std::nullopt;
  }

  StreamSession S;
  if (!parseProgram(Doc, BaseDir, C, S.ProgramSource))
    return std::nullopt;
  if (!parseConfig(Doc, C, S.Config))
    return std::nullopt;

  const JsonValue *Ticks = Doc.find("ticks");
  if (!Ticks || !Ticks->isArray()) {
    C.fail("stream-bad-frame", "missing 'ticks' array");
    return std::nullopt;
  }
  bool HavePrev = false;
  uint64_t PrevTick = 0;
  for (size_t I = 0; I != Ticks->Arr.size(); ++I) {
    const JsonValue &F = Ticks->Arr[I];
    std::string Where = "frame " + std::to_string(I);
    if (!F.isObject()) {
      C.fail("stream-bad-frame", Where + ": not an object");
      return std::nullopt;
    }
    StreamFrame Frame;
    const JsonValue *Tick = F.find("tick");
    if (!Tick || !asU64(*Tick, Frame.Tick)) {
      C.fail("stream-bad-frame",
             Where + ": 'tick' must be a non-negative integer");
      return std::nullopt;
    }
    if (HavePrev && Frame.Tick <= PrevTick) {
      C.fail("stream-tick-order",
             Where + ": tick " + std::to_string(Frame.Tick) +
                 " does not increase over tick " + std::to_string(PrevTick));
      return std::nullopt;
    }
    HavePrev = true;
    PrevTick = Frame.Tick;
    const JsonValue *Requests = F.find("requests");
    if (!Requests || !Requests->isArray()) {
      C.fail("stream-bad-frame", Where + ": missing 'requests' array");
      return std::nullopt;
    }
    for (size_t R = 0; R != Requests->Arr.size(); ++R) {
      StreamRequest Req;
      if (!parseRequest(Requests->Arr[R], Frame.Tick, R, C, Req))
        return std::nullopt;
      Frame.Requests.push_back(std::move(Req));
    }
    S.Frames.push_back(std::move(Frame));
  }
  return S;
}

std::string dra::renderSessionJson(const StreamSession &S) {
  JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("dra-session-v1");
  W.key("program");
  W.beginObject();
  W.key("source");
  W.value(S.ProgramSource);
  W.endObject();
  W.key("config");
  W.beginObject();
  W.key("scheme");
  W.value(S.Config.SchemeName);
  W.key("stripe_factor");
  W.value(S.Config.StripeFactor);
  W.key("stripe_unit_kb");
  W.value(S.Config.StripeUnitKb);
  W.key("tick_budget");
  W.value(S.Config.TickBudget);
  W.key("scratch_tiles");
  W.value(S.Config.ScratchTiles);
  W.endObject();
  W.key("ticks");
  W.beginArray();
  for (const StreamFrame &F : S.Frames) {
    W.beginObject();
    W.key("tick");
    W.value(F.Tick);
    W.key("requests");
    W.beginArray();
    for (const StreamRequest &R : F.Requests) {
      W.beginObject();
      W.key("client");
      W.value(R.Client);
      W.key("op");
      W.value(streamOpName(R.Op));
      if (R.Op == StreamOp::Exec) {
        W.key("first");
        W.value(R.First);
        W.key("count");
        W.value(R.Count);
      } else {
        W.key("object");
        W.value(R.Object);
        if (R.Op == StreamOp::Write) {
          W.key("tiles");
          W.value(R.Tiles);
        }
      }
      W.endObject();
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.key("summary");
  W.beginObject();
  W.key("frames");
  W.value(uint64_t(S.Frames.size()));
  W.key("requests");
  W.value(S.numRequests());
  W.endObject();
  W.endObject();
  return W.take() + "\n";
}
