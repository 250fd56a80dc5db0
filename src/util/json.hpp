#pragma once
/// \file json.hpp
/// Minimal JSON emission + syntax validation.  No external dependency: the
/// trace, metrics and bench exports need a writer, and the tests need an
/// in-process way to assert "this file is well-formed JSON" without
/// shelling out.
///
/// The writer is a push-style serializer: callers open objects/arrays and
/// push keyed values; the writer tracks nesting and comma placement.  It only
/// emits the subset of JSON the exports use (objects, arrays, strings,
/// integers, doubles, bools), always escaped and locale-independent.

#include <cassert>
#include <cctype>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace hpcgraph::util {

/// Streaming JSON serializer into an in-memory string.
class JsonWriter {
 public:
  void begin_object() {
    comma();
    out_ += '{';
    stack_.push_back(State::kObjectFirst);
  }
  void end_object() {
    assert(!stack_.empty());
    stack_.pop_back();
    out_ += '}';
    mark_value();
  }
  void begin_array() {
    comma();
    out_ += '[';
    stack_.push_back(State::kArrayFirst);
  }
  void end_array() {
    assert(!stack_.empty());
    stack_.pop_back();
    out_ += ']';
    mark_value();
  }

  void key(std::string_view k) {
    comma();
    string_raw(k);
    out_ += ':';
    // The next value belongs to this key: suppress its leading comma.
    pending_key_ = true;
  }

  void value(std::string_view s) {
    comma();
    string_raw(s);
    mark_value();
  }
  void value(const char* s) { value(std::string_view(s)); }
  void value(bool b) {
    comma();
    out_ += b ? "true" : "false";
    mark_value();
  }
  void value(double d) {
    comma();
    char buf[64];
    // %.17g round-trips every double; JSON has no inf/nan so clamp to null.
    if (d != d || d > 1.7e308 || d < -1.7e308) {
      std::snprintf(buf, sizeof buf, "null");
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", d);
    }
    out_ += buf;
    mark_value();
  }
  void value(std::uint64_t v) {
    comma();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out_ += buf;
    mark_value();
  }
  void value(std::int64_t v) {
    comma();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    out_ += buf;
    mark_value();
  }
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }

  /// key + value in one call, for the common case.
  template <class T>
  void kv(std::string_view k, T v) {
    key(k);
    value(v);
  }

  const std::string& str() const { return out_; }

 private:
  enum class State { kObjectFirst, kObjectNext, kArrayFirst, kArrayNext };

  void comma() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (stack_.empty()) return;
    State& s = stack_.back();
    if (s == State::kObjectNext || s == State::kArrayNext) out_ += ',';
  }
  void mark_value() {
    if (stack_.empty()) return;
    State& s = stack_.back();
    if (s == State::kObjectFirst) s = State::kObjectNext;
    if (s == State::kArrayFirst) s = State::kArrayNext;
  }
  void string_raw(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<State> stack_;
  bool pending_key_ = false;
};

/// Recursive-descent well-formedness check.  Accepts exactly the JSON value
/// grammar (RFC 8259 minus \uXXXX surrogate-pair pedantry); returns true iff
/// `text` is a single valid JSON value with nothing but whitespace after it.
/// Used by tests to validate the trace and metrics exports without a JSON
/// library.
class JsonChecker {
 public:
  static bool valid(std::string_view text) {
    JsonChecker c{text};
    if (!c.value()) return false;
    c.ws();
    return c.pos_ == text.size();
  }

 private:
  explicit JsonChecker(std::string_view t) : t_(t) {}

  void ws() {
    while (pos_ < t_.size() && (t_[pos_] == ' ' || t_[pos_] == '\t' ||
                                t_[pos_] == '\n' || t_[pos_] == '\r'))
      ++pos_;
  }
  bool eat(char c) {
    if (pos_ < t_.size() && t_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool lit(std::string_view s) {
    if (t_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  bool value() {
    ws();
    if (pos_ >= t_.size()) return false;
    switch (t_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }

  bool object() {
    if (!eat('{')) return false;
    ws();
    if (eat('}')) return true;
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (!eat(':')) return false;
      if (!value()) return false;
      ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool array() {
    if (!eat('[')) return false;
    ws();
    if (eat(']')) return true;
    for (;;) {
      if (!value()) return false;
      ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  bool string() {
    if (!eat('"')) return false;
    while (pos_ < t_.size()) {
      char c = t_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (pos_ >= t_.size()) return false;
        char e = t_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= t_.size() || !std::isxdigit(static_cast<unsigned char>(t_[pos_])))
              return false;
            ++pos_;
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
    }
    return false;
  }

  bool number() {
    std::size_t start = pos_;
    eat('-');
    if (eat('0')) {
      // leading zero must not be followed by digits
    } else {
      if (pos_ >= t_.size() || !std::isdigit(static_cast<unsigned char>(t_[pos_])))
        return false;
      while (pos_ < t_.size() && std::isdigit(static_cast<unsigned char>(t_[pos_])))
        ++pos_;
    }
    if (eat('.')) {
      if (pos_ >= t_.size() || !std::isdigit(static_cast<unsigned char>(t_[pos_])))
        return false;
      while (pos_ < t_.size() && std::isdigit(static_cast<unsigned char>(t_[pos_])))
        ++pos_;
    }
    if (pos_ < t_.size() && (t_[pos_] == 'e' || t_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < t_.size() && (t_[pos_] == '+' || t_[pos_] == '-')) ++pos_;
      if (pos_ >= t_.size() || !std::isdigit(static_cast<unsigned char>(t_[pos_])))
        return false;
      while (pos_ < t_.size() && std::isdigit(static_cast<unsigned char>(t_[pos_])))
        ++pos_;
    }
    return pos_ > start;
  }

  std::string_view t_;
  std::size_t pos_ = 0;
};

}  // namespace hpcgraph::util
