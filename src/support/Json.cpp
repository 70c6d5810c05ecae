//===- support/Json.cpp - Minimal JSON writer and parser --------------------===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Format.h"

#include <cassert>
#include <cmath>
#include <cstdlib>

using namespace dra;

/// Appends \p S to \p Out as a quoted JSON string literal, escaping quotes,
/// backslashes and control characters (embedded NULs included).
static void appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  // Copy runs of plain characters in one append; only the characters that
  // need an escape break a run.
  size_t RunStart = 0;
  for (size_t I = 0; I != S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + RunStart, I - RunStart);
    RunStart = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default: {
      static constexpr char Hex[] = "0123456789abcdef";
      const char Escape[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xF]};
      Out.append(Escape, sizeof(Escape));
    }
    }
  }
  Out.append(S.data() + RunStart, S.size() - RunStart);
  Out += '"';
}

void dra::appendJsonNumber(std::string &Out, double V) {
  if (std::isfinite(V))
    appendExactDouble(Out, V);
  else
    Out += "null";
}

std::string dra::jsonQuote(std::string_view S) {
  std::string Out;
  appendJsonString(Out, S);
  return Out;
}

std::string dra::jsonNumber(double V) {
  std::string Out;
  appendJsonNumber(Out, V);
  return Out;
}

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

void JsonWriter::prefix() {
  if (Stack.empty())
    return;
  Frame &F = Stack.back();
  if (F.InObject) {
    assert(F.KeyPending && "object values must follow key()");
    F.KeyPending = false;
  } else {
    if (!F.First)
      Out += ',';
    F.First = false;
  }
}

void JsonWriter::beginObject() {
  prefix();
  Out += '{';
  Stack.push_back({/*InObject=*/true, /*First=*/true, /*KeyPending=*/false});
}

void JsonWriter::endObject() {
  assert(!Stack.empty() && Stack.back().InObject && !Stack.back().KeyPending &&
         "unbalanced endObject");
  Stack.pop_back();
  Out += '}';
}

void JsonWriter::beginArray() {
  prefix();
  Out += '[';
  Stack.push_back({/*InObject=*/false, /*First=*/true, /*KeyPending=*/false});
}

void JsonWriter::endArray() {
  assert(!Stack.empty() && !Stack.back().InObject && "unbalanced endArray");
  Stack.pop_back();
  Out += ']';
}

void JsonWriter::key(std::string_view K) {
  assert(!Stack.empty() && Stack.back().InObject && !Stack.back().KeyPending &&
         "key() only valid directly inside an object");
  Frame &F = Stack.back();
  if (!F.First)
    Out += ',';
  F.First = false;
  F.KeyPending = true;
  appendJsonString(Out, K);
  Out += ':';
}

void JsonWriter::value(std::string_view S) {
  prefix();
  appendJsonString(Out, S);
}

void JsonWriter::value(double V) {
  prefix();
  appendJsonNumber(Out, V);
}

void JsonWriter::value(uint64_t V) {
  prefix();
  appendInteger(Out, V);
}

void JsonWriter::value(int64_t V) {
  prefix();
  appendInteger(Out, V);
}

void JsonWriter::value(bool B) {
  prefix();
  Out += B ? "true" : "false";
}

void JsonWriter::null() {
  prefix();
  Out += "null";
}

void JsonWriter::rawValue(std::string_view Json) {
  prefix();
  Out += Json;
}

std::string JsonWriter::take() {
  assert(Stack.empty() && "unbalanced JSON document");
  return std::move(Out);
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

const JsonValue *JsonValue::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  auto It = Obj.find(Key);
  return It == Obj.end() ? nullptr : &It->second;
}

namespace {

/// Strict recursive-descent JSON parser over a string.
class Parser {
public:
  Parser(const std::string &Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool parse(JsonValue &Out) {
    skipWs();
    if (!parseValue(Out, /*Depth=*/0))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after document");
    return true;
  }

private:
  static constexpr unsigned MaxDepth = 128;

  bool fail(const std::string &Msg) {
    Error = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        break;
      ++Pos;
    }
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool parseValue(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    switch (C) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.Str);
    case 't':
      if (Text.compare(Pos, 4, "true") == 0) {
        Pos += 4;
        Out.K = JsonValue::Kind::Bool;
        Out.B = true;
        return true;
      }
      return fail("invalid literal");
    case 'f':
      if (Text.compare(Pos, 5, "false") == 0) {
        Pos += 5;
        Out.K = JsonValue::Kind::Bool;
        Out.B = false;
        return true;
      }
      return fail("invalid literal");
    case 'n':
      if (Text.compare(Pos, 4, "null") == 0) {
        Pos += 4;
        Out.K = JsonValue::Kind::Null;
        return true;
      }
      return fail("invalid literal");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JsonValue &Out, unsigned Depth) {
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (consume('}'))
      return true;
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after object key");
      skipWs();
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.Obj.emplace(std::move(Key), std::move(V));
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue &Out, unsigned Depth) {
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (consume(']'))
      return true;
    while (true) {
      skipWs();
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Out.Arr.push_back(std::move(V));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool parseHex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I != 4; ++I) {
      char C = Text[Pos + I];
      unsigned D;
      if (C >= '0' && C <= '9')
        D = unsigned(C - '0');
      else if (C >= 'a' && C <= 'f')
        D = unsigned(C - 'a') + 10;
      else if (C >= 'A' && C <= 'F')
        D = unsigned(C - 'A') + 10;
      else
        return fail("invalid \\u escape digit");
      Out = Out * 16 + D;
    }
    Pos += 4;
    return true;
  }

  static void appendUtf8(std::string &S, unsigned Cp) {
    if (Cp < 0x80) {
      S += char(Cp);
    } else if (Cp < 0x800) {
      S += char(0xC0 | (Cp >> 6));
      S += char(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      S += char(0xE0 | (Cp >> 12));
      S += char(0x80 | ((Cp >> 6) & 0x3F));
      S += char(0x80 | (Cp & 0x3F));
    } else {
      S += char(0xF0 | (Cp >> 18));
      S += char(0x80 | ((Cp >> 12) & 0x3F));
      S += char(0x80 | ((Cp >> 6) & 0x3F));
      S += char(0x80 | (Cp & 0x3F));
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      unsigned char C = (unsigned char)Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return fail("raw control character in string");
      if (C != '\\') {
        Out += char(C);
        ++Pos;
        continue;
      }
      ++Pos; // backslash
      if (Pos >= Text.size())
        return fail("truncated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Cp = 0;
        if (!parseHex4(Cp))
          return false;
        if (Cp >= 0xD800 && Cp <= 0xDBFF) {
          // High surrogate: a low surrogate must follow.
          if (Pos + 1 >= Text.size() || Text[Pos] != '\\' ||
              Text[Pos + 1] != 'u')
            return fail("unpaired surrogate");
          Pos += 2;
          unsigned Lo = 0;
          if (!parseHex4(Lo))
            return false;
          if (Lo < 0xDC00 || Lo > 0xDFFF)
            return fail("invalid low surrogate");
          Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Lo - 0xDC00);
        } else if (Cp >= 0xDC00 && Cp <= 0xDFFF) {
          return fail("unpaired surrogate");
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        return fail("invalid escape character");
      }
    }
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
      return fail("invalid number");
    if (Text[Pos] == '0') {
      ++Pos;
    } else {
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("digit required after decimal point");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Pos >= Text.size() || Text[Pos] < '0' || Text[Pos] > '9')
        return fail("digit required in exponent");
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    double Num = std::strtod(Text.c_str() + Start, nullptr);
    if (!std::isfinite(Num)) {
      // strtod overflows an out-of-range literal (1e999) to +-inf; report
      // the literal's own offset.
      Pos = Start;
      return fail("number out of range");
    }
    Out.K = JsonValue::Kind::Number;
    Out.Num = Num;
    return true;
  }

  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
};

} // namespace

bool dra::parseJson(const std::string &Text, JsonValue &Out,
                    std::string &Error) {
  Out = JsonValue();
  return Parser(Text, Error).parse(Out);
}
