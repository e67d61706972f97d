//===- server/Json.cpp ----------------------------------------------------===//
//
// Part of the fearless-concurrency reproduction.
//
//===----------------------------------------------------------------------===//

#include "server/Json.h"

#include "support/JsonEscape.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace fearless;
using namespace fearless::server;

void Json::set(std::string Key, Json V) {
  K = Kind::Object;
  for (auto &[Name, Value] : Members)
    if (Name == Key) {
      Value = std::move(V);
      return;
    }
  Members.emplace_back(std::move(Key), std::move(V));
}

const Json *Json::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

bool Json::getBool(std::string_view Key, bool Default) const {
  const Json *V = find(Key);
  return V && V->isBool() ? V->boolValue() : Default;
}

int64_t Json::getInt(std::string_view Key, int64_t Default) const {
  const Json *V = find(Key);
  return V && V->isNumber() ? V->intValue() : Default;
}

std::string Json::getString(std::string_view Key,
                            std::string_view Default) const {
  const Json *V = find(Key);
  return V && V->isString() ? V->stringValue() : std::string(Default);
}

void Json::dumpTo(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += BoolV ? "true" : "false";
    break;
  case Kind::Int:
    Out += std::to_string(IntV);
    break;
  case Kind::Double: {
    if (std::isfinite(DoubleV)) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.17g", DoubleV);
      Out += Buf;
    } else {
      Out += "null"; // JSON has no Inf/NaN; null is the lossless-ish out.
    }
    break;
  }
  case Kind::String:
    Out += '"';
    Out += escapeJson(StrV);
    Out += '"';
    break;
  case Kind::Array: {
    Out += '[';
    bool First = true;
    for (const Json &V : Items) {
      if (!First)
        Out += ',';
      First = false;
      V.dumpTo(Out);
    }
    Out += ']';
    break;
  }
  case Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Name, Value] : Members) {
      if (!First)
        Out += ',';
      First = false;
      Out += '"';
      Out += escapeJson(Name);
      Out += "\":";
      Value.dumpTo(Out);
    }
    Out += '}';
    break;
  }
  }
}

std::string Json::dump() const {
  std::string Out;
  dumpTo(Out);
  return Out;
}

namespace {

/// Strict recursive-descent parser. Depth-capped so a pathological frame
/// of ten thousand '[' cannot overflow the session worker's stack.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  Expected<Json> parse() {
    Expected<Json> V = parseValue(0);
    if (!V)
      return V;
    skipWs();
    if (Pos != Text.size())
      return err("trailing characters after JSON document");
    return V;
  }

private:
  static constexpr size_t MaxDepth = 64;

  Failure err(const std::string &Msg) const {
    return fail("JSON parse error at byte " + std::to_string(Pos) + ": " +
                Msg);
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool consumeWord(std::string_view W) {
    if (Text.substr(Pos, W.size()) == W) {
      Pos += W.size();
      return true;
    }
    return false;
  }

  Expected<Json> parseValue(size_t Depth) {
    if (Depth > MaxDepth)
      return err("nesting too deep");
    skipWs();
    if (Pos >= Text.size())
      return err("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return parseObject(Depth);
    if (C == '[')
      return parseArray(Depth);
    if (C == '"')
      return parseString();
    if (C == '-' || (C >= '0' && C <= '9'))
      return parseNumber();
    if (consumeWord("true"))
      return Json(true);
    if (consumeWord("false"))
      return Json(false);
    if (consumeWord("null"))
      return Json();
    return err(std::string("unexpected character '") + C + "'");
  }

  Expected<Json> parseObject(size_t Depth) {
    ++Pos; // '{'
    Json Out = Json::object();
    skipWs();
    if (consume('}'))
      return Out;
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return err("expected object key string");
      Expected<Json> Key = parseString();
      if (!Key)
        return Key;
      skipWs();
      if (!consume(':'))
        return err("expected ':' after object key");
      Expected<Json> Value = parseValue(Depth + 1);
      if (!Value)
        return Value;
      Out.set(Key->stringValue(), Value.take());
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return Out;
      return err("expected ',' or '}' in object");
    }
  }

  Expected<Json> parseArray(size_t Depth) {
    ++Pos; // '['
    Json Out = Json::array();
    skipWs();
    if (consume(']'))
      return Out;
    while (true) {
      Expected<Json> Value = parseValue(Depth + 1);
      if (!Value)
        return Value;
      Out.push(Value.take());
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return Out;
      return err("expected ',' or ']' in array");
    }
  }

  Expected<Json> parseString() {
    ++Pos; // '"'
    std::string Out;
    while (true) {
      if (Pos >= Text.size())
        return err("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return Json(std::move(Out));
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return err("unterminated escape");
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
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return err("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return err("bad hex digit in \\u escape");
        }
        // Encode the code point as UTF-8. Surrogate pairs are passed
        // through as two 3-byte sequences (WTF-8); the wire only ever
        // carries text that round-trips through this same layer.
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return err(std::string("bad escape '\\") + E + "'");
      }
    }
  }

  Expected<Json> parseNumber() {
    size_t Start = Pos;
    (void)consume('-');
    while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
      ++Pos;
    bool Fractional = false;
    if (Pos < Text.size() && Text[Pos] == '.') {
      Fractional = true;
      ++Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      Fractional = true;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    std::string Tok(Text.substr(Start, Pos - Start));
    if (Tok.empty() || Tok == "-")
      return err("malformed number");
    if (!Fractional) {
      errno = 0;
      char *End = nullptr;
      long long V = std::strtoll(Tok.c_str(), &End, 10);
      if (errno == 0 && End && *End == '\0')
        return Json(static_cast<int64_t>(V));
      // Out-of-range integer: fall through to double.
    }
    return Json(std::strtod(Tok.c_str(), nullptr));
  }

  std::string_view Text;
  size_t Pos = 0;
};

} // namespace

Expected<Json> fearless::server::parseJson(std::string_view Text) {
  return Parser(Text).parse();
}
