/**
 * @file
 * Minimal streaming JSON writer and a matching recursive-descent
 * reader. The writer produces compact, valid JSON with proper string
 * escaping; commas and nesting are tracked by a state stack so
 * callers never emit separators by hand. The reader (JsonValue)
 * parses what the writer emits — plus any standard JSON — into an
 * order-preserving DOM; it backs the timeline/baseline consumers
 * (tools/contig_inspect). Used by the Report/bench `--json` output
 * and the observatory timeline, and small enough to be a reasonable
 * dependency from anywhere in base/.
 */

#ifndef CONTIG_BASE_JSON_HH
#define CONTIG_BASE_JSON_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace contig
{

/**
 * Streaming JSON writer into an internal buffer.
 *
 * Usage:
 *   JsonWriter w;
 *   w.beginObject();
 *   w.key("name"); w.value("fig07");
 *   w.key("rows"); w.beginArray(); w.value(1.5); w.endArray();
 *   w.endObject();
 *   std::string out = std::move(w).str();
 *
 * Misuse (e.g. a value in an object position without a key) trips an
 * assertion; this is a programming error, not an input error.
 */
class JsonWriter
{
  public:
    JsonWriter() = default;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Object key; must be followed by exactly one value/container. */
    void key(std::string_view k);

    void value(std::string_view v);
    void value(const char *v) { value(std::string_view(v)); }
    void value(bool v);
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
    void null();

    /** key() + value() in one call. */
    template <typename T>
    void
    field(std::string_view k, T &&v)
    {
        key(k);
        value(std::forward<T>(v));
    }

    /** True once every container has been closed and a value emitted. */
    bool complete() const;

    const std::string &str() const &;
    std::string str() &&;

    /**
     * JSON-escape a string body (no surrounding quotes): ", \ and
     * control characters are escaped, everything else passes through
     * byte-for-byte (UTF-8 stays valid UTF-8).
     */
    static std::string escape(std::string_view s);

  private:
    enum class Frame : std::uint8_t
    {
        ObjectStart, //!< inside {, before first key
        ObjectKey,   //!< key written, value expected
        ObjectNext,  //!< at least one member written
        ArrayStart,  //!< inside [, before first element
        ArrayNext,   //!< at least one element written
    };

    /** Write separators/state transitions for an incoming value. */
    void beforeValue();
    void raw(std::string_view s) { out_.append(s); }

    std::string out_;
    std::vector<Frame> stack_;
    bool done_ = false;
};

/**
 * A parsed JSON document node. Objects preserve member order (the
 * writer emits deterministic documents; diffs stay stable), and
 * numbers are kept as doubles — the repo's JSON carries counters and
 * point values that all fit a double exactly up to 2^53.
 *
 * Usage:
 *   auto doc = JsonValue::parse(text, &err);
 *   if (!doc) ...;
 *   const JsonValue *rows = doc->find("rows");
 *   for (const JsonValue &row : rows->array()) ...;
 */
class JsonValue
{
  public:
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool() const { return bool_; }
    double asNumber() const { return num_; }
    const std::string &asString() const { return str_; }

    const std::vector<JsonValue> &array() const { return elems_; }
    const std::vector<Member> &members() const { return members_; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** Number at `key`, or `fallback` when absent / not a number. */
    double numberOr(std::string_view key, double fallback) const;

    /**
     * This number as an integer in [0, max], or nullopt when it is not
     * a number, has a fraction, is negative or exceeds max. Readers
     * that cast a JSON number to an unsigned field go through this.
     */
    std::optional<std::uint64_t>
    asUint(std::uint64_t max = ~std::uint64_t{0}) const;

    /**
     * Parse one complete JSON document (trailing whitespace allowed,
     * trailing garbage is an error). On failure returns nullopt and,
     * if `err` is given, a one-line message with the byte offset.
     */
    static std::optional<JsonValue> parse(std::string_view text,
                                          std::string *err = nullptr);

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> elems_;
    std::vector<Member> members_;

    friend class JsonParser;
};

} // namespace contig

#endif // CONTIG_BASE_JSON_HH
