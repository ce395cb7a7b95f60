#include "support/Json.h"

#include "support/Format.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

using namespace helix;

Json Json::boolean(bool V) {
  Json J;
  J.K = Kind::Bool;
  J.B = V;
  return J;
}

Json Json::integer(int64_t V) {
  Json J;
  J.K = Kind::Int;
  J.I = V;
  return J;
}

Json Json::number(double V) {
  Json J;
  J.K = Kind::Double;
  J.D = V;
  return J;
}

Json Json::str(std::string V) {
  Json J;
  J.K = Kind::String;
  J.S = std::move(V);
  return J;
}

Json Json::array() {
  Json J;
  J.K = Kind::Array;
  return J;
}

Json Json::object() {
  Json J;
  J.K = Kind::Object;
  return J;
}

int64_t Json::asInt() const {
  if (K == Kind::Int)
    return I;
  if (K == Kind::Double)
    return int64_t(D);
  return 0;
}

double Json::asDouble() const {
  if (K == Kind::Int)
    return double(I);
  if (K == Kind::Double)
    return D;
  return 0.0;
}

Json &Json::push(Json V) {
  Elems.push_back(std::move(V));
  return *this;
}

Json &Json::set(const std::string &Key, Json V) {
  for (auto &M : Members)
    if (M.first == Key) {
      M.second = std::move(V);
      return *this;
    }
  Members.emplace_back(Key, std::move(V));
  return *this;
}

const Json *Json::find(const std::string &Key) const {
  for (const auto &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

int64_t Json::getInt(const std::string &Key, int64_t Default) const {
  const Json *V = find(Key);
  return V && V->isNumber() ? V->asInt() : Default;
}

double Json::getDouble(const std::string &Key, double Default) const {
  const Json *V = find(Key);
  return V && V->isNumber() ? V->asDouble() : Default;
}

std::string Json::getString(const std::string &Key,
                            const std::string &Default) const {
  const Json *V = find(Key);
  return V && V->isString() ? V->asString() : Default;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

void printEscaped(const std::string &S, std::string &Out) {
  Out += '"';
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
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
    default:
      if (C < 0x20)
        Out += formatStr("\\u%04x", C);
      else
        Out += char(C);
    }
  }
  Out += '"';
}

std::string printDouble(double V) {
  if (std::isnan(V) || std::isinf(V))
    return "null"; // JSON has no literal for these
  std::string S = formatStr("%.17g", V);
  // Keep doubles distinguishable from ints on re-parse.
  if (S.find('.') == std::string::npos && S.find('e') == std::string::npos &&
      S.find("inf") == std::string::npos && S.find("nan") == std::string::npos)
    S += ".0";
  return S;
}

} // namespace

void Json::print(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    return;
  case Kind::Bool:
    Out += B ? "true" : "false";
    return;
  case Kind::Int:
    Out += formatStr("%lld", (long long)I);
    return;
  case Kind::Double:
    Out += printDouble(D);
    return;
  case Kind::String:
    printEscaped(S, Out);
    return;
  case Kind::Array: {
    Out += '[';
    for (size_t Idx = 0; Idx != Elems.size(); ++Idx) {
      if (Idx)
        Out += ',';
      Elems[Idx].print(Out);
    }
    Out += ']';
    return;
  }
  case Kind::Object: {
    Out += '{';
    for (size_t Idx = 0; Idx != Members.size(); ++Idx) {
      if (Idx)
        Out += ',';
      printEscaped(Members[Idx].first, Out);
      Out += ':';
      Members[Idx].second.print(Out);
    }
    Out += '}';
    return;
  }
  }
}

std::string Json::toString() const {
  std::string Out;
  print(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

struct Parser {
  const char *P, *End;
  std::string Err;
  unsigned Depth = 0;
  static constexpr unsigned MaxDepth = 64; // recursion bound: hostile input
                                           // must not smash the stack

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  void skipWs() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }

  bool literal(const char *Lit) {
    const char *Q = P;
    while (*Lit) {
      if (Q == End || *Q != *Lit)
        return false;
      ++Q;
      ++Lit;
    }
    P = Q;
    return true;
  }

  bool parseString(std::string &Out) {
    if (P == End || *P != '"')
      return fail("expected string");
    ++P;
    Out.clear();
    while (P != End && *P != '"') {
      unsigned char C = (unsigned char)*P;
      if (C < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out += char(C);
        ++P;
        continue;
      }
      ++P;
      if (P == End)
        return fail("dangling escape");
      char E = *P++;
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
        if (End - P < 4)
          return fail("truncated \\u escape");
        unsigned V = 0;
        for (int K = 0; K != 4; ++K) {
          char H = *P++;
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= unsigned(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= unsigned(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= unsigned(H - 'A' + 10);
          else
            return fail("bad hex digit in \\u escape");
        }
        // Encode the code point as UTF-8 (surrogate pairs are passed
        // through as two 3-byte sequences — the protocol never emits
        // them, this just keeps parse total).
        if (V < 0x80) {
          Out += char(V);
        } else if (V < 0x800) {
          Out += char(0xC0 | (V >> 6));
          Out += char(0x80 | (V & 0x3F));
        } else {
          Out += char(0xE0 | (V >> 12));
          Out += char(0x80 | ((V >> 6) & 0x3F));
          Out += char(0x80 | (V & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape character");
      }
    }
    if (P == End)
      return fail("unterminated string");
    ++P; // closing quote
    return true;
  }

  bool parseValue(Json &Out) {
    if (++Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (P == End)
      return fail("unexpected end of input");
    bool Ok = parseValueInner(Out);
    --Depth;
    return Ok;
  }

  bool parseValueInner(Json &Out) {
    switch (*P) {
    case 'n':
      if (!literal("null"))
        return fail("bad literal");
      Out = Json::null();
      return true;
    case 't':
      if (!literal("true"))
        return fail("bad literal");
      Out = Json::boolean(true);
      return true;
    case 'f':
      if (!literal("false"))
        return fail("bad literal");
      Out = Json::boolean(false);
      return true;
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Json::str(std::move(S));
      return true;
    }
    case '[': {
      ++P;
      Out = Json::array();
      skipWs();
      if (P != End && *P == ']') {
        ++P;
        return true;
      }
      for (;;) {
        Json Elem;
        if (!parseValue(Elem))
          return false;
        Out.push(std::move(Elem));
        skipWs();
        if (P == End)
          return fail("unterminated array");
        if (*P == ',') {
          ++P;
          continue;
        }
        if (*P == ']') {
          ++P;
          return true;
        }
        return fail("expected ',' or ']' in array");
      }
    }
    case '{': {
      ++P;
      Out = Json::object();
      skipWs();
      if (P != End && *P == '}') {
        ++P;
        return true;
      }
      for (;;) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (P == End || *P != ':')
          return fail("expected ':' after object key");
        ++P;
        Json Val;
        if (!parseValue(Val))
          return false;
        Out.set(Key, std::move(Val));
        skipWs();
        if (P == End)
          return fail("unterminated object");
        if (*P == ',') {
          ++P;
          continue;
        }
        if (*P == '}') {
          ++P;
          return true;
        }
        return fail("expected ',' or '}' in object");
      }
    }
    default:
      return parseNumber(Out);
    }
  }

  bool parseNumber(Json &Out) {
    const char *Start = P;
    if (P != End && *P == '-')
      ++P;
    bool AnyDigit = false;
    while (P != End && std::isdigit((unsigned char)*P)) {
      ++P;
      AnyDigit = true;
    }
    bool IsInt = true;
    if (P != End && *P == '.') {
      IsInt = false;
      ++P;
      while (P != End && std::isdigit((unsigned char)*P))
        ++P;
    }
    if (P != End && (*P == 'e' || *P == 'E')) {
      IsInt = false;
      ++P;
      if (P != End && (*P == '+' || *P == '-'))
        ++P;
      while (P != End && std::isdigit((unsigned char)*P))
        ++P;
    }
    if (!AnyDigit)
      return fail("expected value");
    std::string Text(Start, P);
    if (IsInt) {
      errno = 0;
      char *EndPtr = nullptr;
      long long V = std::strtoll(Text.c_str(), &EndPtr, 10);
      if (errno == 0 && EndPtr && *EndPtr == '\0') {
        Out = Json::integer(V);
        return true;
      }
      // Out-of-int64-range integers degrade to double.
    }
    char *EndPtr = nullptr;
    double V = std::strtod(Text.c_str(), &EndPtr);
    if (!EndPtr || *EndPtr != '\0')
      return fail("malformed number");
    Out = Json::number(V);
    return true;
  }
};

} // namespace

bool Json::parse(const std::string &Text, Json &Out, std::string *Err) {
  Parser P{Text.data(), Text.data() + Text.size(), std::string(), 0};
  Json V;
  if (!P.parseValue(V)) {
    if (Err)
      *Err = P.Err.empty() ? "parse error" : P.Err;
    return false;
  }
  P.skipWs();
  if (P.P != P.End) {
    if (Err)
      *Err = "trailing garbage after JSON value";
    return false;
  }
  Out = std::move(V);
  if (Err)
    Err->clear();
  return true;
}
