//===- support/Json.h - Minimal JSON writer and parser ----------*- C++ -*-===//
//
// Part of the DRA project (CGO 2006 disk-access-locality reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON layer for the telemetry exports
/// (docs/FORMATS.md): a streaming JsonWriter used by the trace, metrics and
/// run-report serializers, and a strict recursive-descent parser used by the
/// round-trip tests. Emitted numbers use enough digits for doubles to
/// round-trip exactly. The writer appends straight into its buffer: numbers
/// go through std::to_chars and strings are escaped in place, so emitting a
/// value allocates nothing beyond the growth of the buffer and the nesting
/// stack.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SUPPORT_JSON_H
#define DRA_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dra {

/// Appends \p V to \p Out as a JSON number: printf "%.17g" digits, or null
/// for non-finite values (which JSON cannot represent).
void appendJsonNumber(std::string &Out, double V);

/// Escapes and quotes \p S as a JSON string literal (including the quotes).
std::string jsonQuote(std::string_view S);

/// Renders \p V as a JSON number. Non-finite values (which JSON cannot
/// represent) render as null.
std::string jsonNumber(double V);

/// Incremental JSON document builder with automatic comma/nesting
/// management. Usage:
/// \code
///   JsonWriter W;
///   W.beginObject();
///   W.key("count");
///   W.value(uint64_t(3));
///   W.endObject();
///   std::string Doc = W.take();
/// \endcode
class JsonWriter {
public:
  void beginObject();
  void endObject();
  void beginArray();
  void endArray();

  /// Emits an object key; the next value/beginX call becomes its value.
  void key(std::string_view K);

  void value(std::string_view S);
  /// Keeps string literals off value(bool), which a pointer would
  /// otherwise convert to ahead of std::string_view.
  void value(const char *S) { value(std::string_view(S)); }
  void value(double V);
  void value(uint64_t V);
  void value(int64_t V);
  void value(unsigned V) { value(uint64_t(V)); }
  void value(int V) { value(int64_t(V)); }
  void value(bool B);
  void null();

  /// Emits \p Json verbatim as the next value. The caller guarantees it is
  /// one well-formed JSON value (used to splice pre-rendered fragments).
  void rawValue(std::string_view Json);

  /// The bytes written so far.
  std::string_view view() const { return Out; }
  /// Makes room for \p Bytes more bytes of output.
  void reserve(size_t Bytes) { Out.reserve(Out.size() + Bytes); }
  /// Drops everything written, keeping the storage for the next document.
  void clear() {
    Out.clear();
    Stack.clear();
  }

  /// Finishes the document and returns it. The writer must be balanced
  /// (every begin closed).
  std::string take();

private:
  struct Frame {
    bool InObject = false;
    bool First = true;
    bool KeyPending = false;
  };

  void prefix();

  std::string Out;
  std::vector<Frame> Stack;
};

/// A parsed JSON value (strict parser; used by tests and validators).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;

  bool isNull() const { return K == Kind::Null; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue *find(const std::string &Key) const;
};

/// Parses \p Text as one JSON document. Returns false (with \p Error set,
/// including the byte offset) on any syntax violation or trailing garbage.
bool parseJson(const std::string &Text, JsonValue &Out, std::string &Error);

} // namespace dra

#endif // DRA_SUPPORT_JSON_H
