//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON value: build, print on one line, parse.
/// Backs the serve protocol (newline-delimited JSON over a local socket)
/// and the report serialization — no external dependency, no streaming,
/// documents the subset it supports:
///
///   - objects keep insertion order (printing is deterministic, so printed
///     messages are byte-stable and usable as coalescing keys);
///   - numbers are either int64 ("Int", printed without a decimal point)
///     or double ("Double"); a parsed literal becomes Int when it has no
///     fraction/exponent and fits, else Double;
///   - strings are uninterpreted bytes; control characters and '"'/'\\'
///     are escaped on print, \uXXXX escapes decode to UTF-8 on parse;
///   - parse rejects trailing garbage, so one line is one message.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_SUPPORT_JSON_H
#define HELIX_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace helix {

class Json {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Json() = default;
  static Json null() { return Json(); }
  static Json boolean(bool V);
  static Json integer(int64_t V);
  static Json number(double V);
  static Json str(std::string V);
  static Json array();
  static Json object();

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  /// Ints return their value; Doubles truncate. 0 for non-numbers.
  int64_t asInt() const;
  /// Ints widen; 0.0 for non-numbers.
  double asDouble() const;
  const std::string &asString() const { return S; }

  // --- Arrays -------------------------------------------------------------
  size_t size() const { return Elems.size(); }
  const Json &at(size_t I) const { return Elems[I]; }
  const std::vector<Json> &elements() const { return Elems; }
  /// Appends to an array (the value must be an array).
  Json &push(Json V);

  // --- Objects ------------------------------------------------------------
  /// Sets \p Key (replacing an existing value, keeping its position).
  Json &set(const std::string &Key, Json V);
  /// \returns the member or null when absent / not an object.
  const Json *find(const std::string &Key) const;
  const std::vector<std::pair<std::string, Json>> &members() const {
    return Members;
  }

  // Typed member lookups: value when present and of the right kind, else
  // the fallback.
  int64_t getInt(const std::string &Key, int64_t Default = 0) const;
  double getDouble(const std::string &Key, double Default = 0) const;
  std::string getString(const std::string &Key,
                        const std::string &Default = std::string()) const;

  /// Prints the value on one line (no newline). Deterministic: object
  /// members print in insertion order.
  void print(std::string &Out) const;
  std::string toString() const;

  /// Parses exactly one JSON value from \p Text (surrounding whitespace
  /// tolerated, trailing non-whitespace rejected). On failure returns
  /// false and describes the problem in \p Err (when non-null).
  static bool parse(const std::string &Text, Json &Out,
                    std::string *Err = nullptr);

private:
  Kind K = Kind::Null;
  bool B = false;
  int64_t I = 0;
  double D = 0;
  std::string S;
  std::vector<Json> Elems;
  std::vector<std::pair<std::string, Json>> Members;
};

} // namespace helix

#endif // HELIX_SUPPORT_JSON_H
