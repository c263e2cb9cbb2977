#include "base/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/logging.hh"

namespace contig
{

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

void
JsonWriter::beforeValue()
{
    contig_assert(!done_, "JsonWriter: value after document completed");
    if (stack_.empty())
        return;
    switch (stack_.back()) {
      case Frame::ObjectStart:
      case Frame::ObjectNext:
        panic("JsonWriter: value in object position without a key");
      case Frame::ObjectKey:
        stack_.back() = Frame::ObjectNext;
        break;
      case Frame::ArrayStart:
        stack_.back() = Frame::ArrayNext;
        break;
      case Frame::ArrayNext:
        raw(",");
        break;
    }
}

void
JsonWriter::beginObject()
{
    beforeValue();
    raw("{");
    stack_.push_back(Frame::ObjectStart);
}

void
JsonWriter::endObject()
{
    contig_assert(!stack_.empty() &&
                      (stack_.back() == Frame::ObjectStart ||
                       stack_.back() == Frame::ObjectNext),
                  "JsonWriter: endObject outside an object");
    stack_.pop_back();
    raw("}");
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::beginArray()
{
    beforeValue();
    raw("[");
    stack_.push_back(Frame::ArrayStart);
}

void
JsonWriter::endArray()
{
    contig_assert(!stack_.empty() && (stack_.back() == Frame::ArrayStart ||
                                      stack_.back() == Frame::ArrayNext),
                  "JsonWriter: endArray outside an array");
    stack_.pop_back();
    raw("]");
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::key(std::string_view k)
{
    contig_assert(!stack_.empty() &&
                      (stack_.back() == Frame::ObjectStart ||
                       stack_.back() == Frame::ObjectNext),
                  "JsonWriter: key outside an object");
    if (stack_.back() == Frame::ObjectNext)
        raw(",");
    raw("\"");
    raw(escape(k));
    raw("\":");
    stack_.back() = Frame::ObjectKey;
}

void
JsonWriter::value(std::string_view v)
{
    beforeValue();
    raw("\"");
    raw(escape(v));
    raw("\"");
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::value(bool v)
{
    beforeValue();
    raw(v ? "true" : "false");
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::value(double v)
{
    beforeValue();
    if (!std::isfinite(v)) {
        // JSON has no NaN/Inf literals; null is the conventional stand-in.
        raw("null");
    } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.12g", v);
        // Keep the compact form when it round-trips; fall back to
        // full precision so readers reconstruct the exact double
        // (the timeline codec depends on this).
        if (std::strtod(buf, nullptr) != v)
            std::snprintf(buf, sizeof(buf), "%.17g", v);
        raw(buf);
    }
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    raw(buf);
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::value(std::int64_t v)
{
    beforeValue();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    raw(buf);
    if (stack_.empty())
        done_ = true;
}

void
JsonWriter::null()
{
    beforeValue();
    raw("null");
    if (stack_.empty())
        done_ = true;
}

bool
JsonWriter::complete() const
{
    return done_ && stack_.empty();
}

// --- reader ---------------------------------------------------------------

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const Member &m : members_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

double
JsonValue::numberOr(std::string_view key, double fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber() ? v->asNumber() : fallback;
}

std::optional<std::uint64_t>
JsonValue::asUint(std::uint64_t max) const
{
    // 0x1p64 is the least double no std::uint64_t holds; the cast
    // below is defined only under it.
    if (!isNumber() || !(num_ >= 0) || num_ >= 0x1p64 ||
        num_ != std::trunc(num_))
        return std::nullopt;
    const auto v = static_cast<std::uint64_t>(num_);
    if (v > max)
        return std::nullopt;
    return v;
}

/**
 * Recursive-descent parser over a string_view. Depth is bounded to
 * reject pathological nesting before the C++ stack does.
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    std::optional<JsonValue>
    run(std::string *err)
    {
        JsonValue v;
        if (!parseValue(v, 0) || !atEndAfterWs()) {
            if (err)
                *err = error_.empty() ? "trailing garbage after document"
                                      : error_;
            if (err && error_.empty())
                *err += " at offset " + std::to_string(pos_);
            return std::nullopt;
        }
        return v;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    fail(const char *what)
    {
        if (error_.empty())
            error_ = std::string(what) + " at offset " +
                     std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    atEndAfterWs()
    {
        skipWs();
        return pos_ == text_.size();
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        cp |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        cp |= h - 'A' + 10;
                    else
                        return fail("bad \\u escape");
                }
                // Encode the code point as UTF-8 (surrogate pairs in
                // input are passed through as two 3-byte sequences;
                // the writer never emits them).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                return fail("bad escape character");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &v)
    {
        const std::size_t start = pos_;
        if (consume('-')) {}
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected number");
        const std::string tok(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (!end || *end != '\0' || !std::isfinite(d)) {
            pos_ = start;
            return fail("malformed number");
        }
        v.type_ = JsonValue::Type::Number;
        v.num_ = d;
        return true;
    }

    bool
    parseValue(JsonValue &v, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case '{': {
            ++pos_;
            v.type_ = JsonValue::Type::Object;
            skipWs();
            if (consume('}'))
                return true;
            while (true) {
                skipWs();
                JsonValue::Member m;
                if (!parseString(m.first))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                if (!parseValue(m.second, depth + 1))
                    return false;
                v.members_.push_back(std::move(m));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
          }
          case '[': {
            ++pos_;
            v.type_ = JsonValue::Type::Array;
            skipWs();
            if (consume(']'))
                return true;
            while (true) {
                JsonValue elem;
                if (!parseValue(elem, depth + 1))
                    return false;
                v.elems_.push_back(std::move(elem));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
          }
          case '"':
            v.type_ = JsonValue::Type::String;
            return parseString(v.str_);
          case 't':
            v.type_ = JsonValue::Type::Bool;
            v.bool_ = true;
            return literal("true");
          case 'f':
            v.type_ = JsonValue::Type::Bool;
            v.bool_ = false;
            return literal("false");
          case 'n':
            v.type_ = JsonValue::Type::Null;
            return literal("null");
          default:
            return parseNumber(v);
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string error_;
};

std::optional<JsonValue>
JsonValue::parse(std::string_view text, std::string *err)
{
    return JsonParser(text).run(err);
}

const std::string &
JsonWriter::str() const &
{
    return out_;
}

std::string
JsonWriter::str() &&
{
    return std::move(out_);
}

} // namespace contig
