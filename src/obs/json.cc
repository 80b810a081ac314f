#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hire {
namespace obs {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  out += JsonEscape(text);
  out += '"';
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator.
// ---------------------------------------------------------------------------

namespace {

struct Parser {
  const char* p;
  const char* end;
  const char* begin;
  std::string error;
  int depth = 0;

  bool Fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at offset " + std::to_string(p - begin);
    }
    return false;
  }

  void SkipSpace() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool ParseString() {
    if (p >= end || *p != '"') return Fail("expected string");
    ++p;
    while (p < end) {
      const unsigned char c = static_cast<unsigned char>(*p);
      if (c == '"') {
        ++p;
        return true;
      }
      if (c == '\\') {
        ++p;
        if (p >= end) return Fail("truncated escape");
        const char esc = *p;
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++p;
            if (p >= end || !std::isxdigit(static_cast<unsigned char>(*p))) {
              return Fail("bad \\u escape");
            }
          }
        } else if (std::strchr("\"\\/bfnrt", esc) == nullptr) {
          return Fail("bad escape character");
        }
        ++p;
        continue;
      }
      if (c < 0x20) return Fail("raw control character in string");
      ++p;
    }
    return Fail("unterminated string");
  }

  bool ParseNumber() {
    const char* start = p;
    if (p < end && *p == '-') ++p;
    while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    if (p < end && *p == '.') {
      ++p;
      while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    }
    if (p == start || (p == start + 1 && *start == '-')) {
      return Fail("malformed number");
    }
    return true;
  }

  bool ParseLiteral(const char* word) {
    const size_t len = std::strlen(word);
    if (static_cast<size_t>(end - p) < len || std::strncmp(p, word, len) != 0) {
      return Fail("unknown literal");
    }
    p += len;
    return true;
  }

  bool ParseValue() {
    if (++depth > 256) return Fail("nesting too deep");
    SkipSpace();
    if (p >= end) return Fail("unexpected end of input");
    bool ok = false;
    switch (*p) {
      case '{':
        ok = ParseObject();
        break;
      case '[':
        ok = ParseArray();
        break;
      case '"':
        ok = ParseString();
        break;
      case 't':
        ok = ParseLiteral("true");
        break;
      case 'f':
        ok = ParseLiteral("false");
        break;
      case 'n':
        ok = ParseLiteral("null");
        break;
      default:
        ok = ParseNumber();
    }
    --depth;
    return ok;
  }

  bool ParseObject() {
    ++p;  // consume '{'
    SkipSpace();
    if (p < end && *p == '}') {
      ++p;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!ParseString()) return Fail("expected object key");
      SkipSpace();
      if (p >= end || *p != ':') return Fail("expected ':'");
      ++p;
      if (!ParseValue()) return false;
      SkipSpace();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == '}') {
        ++p;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray() {
    ++p;  // consume '['
    SkipSpace();
    if (p < end && *p == ']') {
      ++p;
      return true;
    }
    while (true) {
      if (!ParseValue()) return false;
      SkipSpace();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      if (p < end && *p == ']') {
        ++p;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }
};

}  // namespace

bool JsonValidate(const std::string& text, std::string* error) {
  Parser parser{text.data(), text.data() + text.size(), text.data(), "", 0};
  bool ok = parser.ParseValue();
  if (ok) {
    parser.SkipSpace();
    if (parser.p != parser.end) {
      ok = parser.Fail("trailing characters after value");
    }
  }
  if (!ok && error != nullptr) *error = parser.error;
  return ok;
}

namespace {

// Returns the offset just past `"key":` or npos.
size_t FindFieldValue(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return std::string::npos;
  return at + needle.size();
}

}  // namespace

bool FindJsonNumberField(const std::string& line, const std::string& key,
                         double* out) {
  const size_t at = FindFieldValue(line, key);
  if (at == std::string::npos || at >= line.size()) return false;
  char* tail = nullptr;
  const double value = std::strtod(line.c_str() + at, &tail);
  if (tail == line.c_str() + at) return false;
  if (out != nullptr) *out = value;
  return true;
}

bool FindJsonStringField(const std::string& line, const std::string& key,
                         std::string* out) {
  size_t at = FindFieldValue(line, key);
  if (at == std::string::npos || at >= line.size() || line[at] != '"') {
    return false;
  }
  ++at;
  std::string value;
  while (at < line.size() && line[at] != '"') {
    if (line[at] == '\\' && at + 1 < line.size()) {
      value += line[at];
      ++at;
    }
    value += line[at];
    ++at;
  }
  if (at >= line.size()) return false;
  if (out != nullptr) *out = value;
  return true;
}

}  // namespace obs
}  // namespace hire
