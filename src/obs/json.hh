/**
 * @file
 * Minimal JSON support for the observability layer: a comma-tracking
 * writer that produces byte-deterministic documents (fixed key order,
 * `%.17g` doubles so every value round-trips exactly), and a small
 * recursive-descent parser used by the tests (round-trip checks) and
 * the artifact validation tooling. No external dependencies.
 */

#ifndef EIP_OBS_JSON_HH
#define EIP_OBS_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace eip::obs {

/** Escape @p text for use inside a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &text);

/**
 * Streaming JSON writer. Call begin/end and key/value in document order;
 * commas are inserted automatically. The writer does not validate
 * grammar beyond comma placement — callers emit well-formed documents
 * by construction (and the tests parse them back).
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    JsonWriter &key(const std::string &name);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(unsigned v);
    JsonWriter &value(double v);
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(bool v);

    /** Splice @p text — a complete, pre-serialized JSON value — into
     *  the document where a value is expected (comma handling as for
     *  any other value). Used to embed an already-rendered eip-run/v1
     *  artifact into an eip-serve/v1 response without re-parsing it. */
    JsonWriter &raw(const std::string &text);

    /** Shorthand for key(name).value(v). */
    template <typename T>
    JsonWriter &
    kv(const std::string &name, T v)
    {
        return key(name).value(v);
    }

    const std::string &str() const { return out; }

  private:
    void separate();

    std::string out;
    std::vector<bool> needComma; ///< per open container
    bool afterKey = false;
};

/** One parsed JSON value (object keys keep document order). */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    /** Numbers are doubles: exact for integers up to 2^53, far beyond
     *  any counter this simulator produces in one run. */
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Object member by key, or nullptr. */
    const JsonValue *find(const std::string &name) const;
    bool isNumber() const { return type == Type::Number; }
    uint64_t asU64() const { return static_cast<uint64_t>(number); }
};

/** Why parseJson refused a document. */
enum class JsonParseError
{
    None,
    Malformed,
    TooDeep, ///< nested deeper than kMaxJsonDepth
};

/** Deepest value nesting parseJson accepts: it recurses per level, so a
 *  hostile line of '[' must not reach the stack limit. */
inline constexpr size_t kMaxJsonDepth = 512;

/**
 * Parse @p text as one JSON document. Returns nullopt on malformed or
 * too deeply nested input; the error description lands in @p error and
 * its kind in @p kind when given.
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr,
                                   JsonParseError *kind = nullptr);

} // namespace eip::obs

#endif // EIP_OBS_JSON_HH
