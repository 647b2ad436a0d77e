/**
 * @file
 * Minimal JSON for the serving protocol (DESIGN.md §15).
 *
 * The daemon speaks line-delimited JSON, so it needs a parser — the
 * rest of the repo only *emits* JSON (MetricsRegistry::toJson, the
 * chaos summaries).  This is a small strict recursive-descent
 * implementation of the full value grammar (objects, arrays, strings
 * with \uXXXX escapes incl. surrogate pairs, numbers, booleans, null)
 * with a depth limit, plus the escaping helpers responses are built
 * from.  No dependencies beyond the standard library; protocol inputs
 * are untrusted, so every malformed document must come back as a
 * parse error, never UB (ci.sh's ASan+UBSan ctest pass runs this
 * parser over the malformed-input tests).
 */

#ifndef ADORE_SERVE_JSON_HH
#define ADORE_SERVE_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace adore::serve::json
{

class Value
{
  public:
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array
    };

    Value() = default;

    Kind kind() const { return kind_; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isString() const { return kind_ == Kind::String; }
    bool isNumber() const { return kind_ == Kind::Number; }

    bool asBool(bool def = false) const;
    double asNumber(double def = 0.0) const;
    const std::string &asString() const { return string_; }

    /** Object member named @p key, or nullptr (also on non-objects). */
    const Value *find(const std::string &key) const;

    /** Array elements (empty on non-arrays). */
    const std::vector<Value> &items() const { return items_; }
    /** Object members in document order (empty on non-objects). */
    const std::vector<std::pair<std::string, Value>> &members() const
    {
        return members_;
    }

    /// @name Typed object-member accessors with defaults
    /// @{
    std::string str(const std::string &key,
                    const std::string &def = "") const;
    double num(const std::string &key, double def = 0.0) const;
    std::uint64_t u64(const std::string &key,
                      std::uint64_t def = 0) const;
    bool flag(const std::string &key, bool def = false) const;
    /// @}

    /// @name Construction (used by the parser and response builders)
    /// @{
    static Value makeNull() { return Value(); }
    static Value makeBool(bool b);
    static Value makeNumber(double n);
    static Value makeString(std::string s);
    static Value makeObject();
    static Value makeArray();
    void add(std::string key, Value v);  ///< append object member
    void push(Value v);                  ///< append array element
    /// @}

    /** Compact (single-line) serialization — the line-protocol form. */
    std::string render() const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> items_;
    std::vector<std::pair<std::string, Value>> members_;
};

/**
 * Parse @p text (one complete JSON document, surrounding whitespace
 * allowed).  @return false and set @p err on malformed input; @p out is
 * unspecified then.
 */
bool parse(const std::string &text, Value &out, std::string &err);

/** JSON string literal for @p s, quotes included ("ab\"c" → "\"ab\\\"c\""). */
std::string quote(const std::string &s);

/** Re-render @p text compactly (parse + render).  @return false when
 *  @p text is not valid JSON (out untouched). */
bool compact(const std::string &text, std::string &out);

} // namespace adore::serve::json

#endif // ADORE_SERVE_JSON_HH
