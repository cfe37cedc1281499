#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace eip::obs {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (unsigned char c : text) {
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
JsonWriter::separate()
{
    if (afterKey) {
        afterKey = false;
        return;
    }
    if (!needComma.empty()) {
        if (needComma.back())
            out += ',';
        needComma.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out += '{';
    needComma.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out += '}';
    needComma.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out += '[';
    needComma.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out += ']';
    needComma.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    separate();
    out += '"';
    out += jsonEscape(name);
    out += "\":";
    afterKey = true;
    return *this;
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    separate();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &text)
{
    separate();
    out += text;
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    separate();
    out += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(unsigned v)
{
    return value(static_cast<uint64_t>(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; derived ratios can produce them only on
        // degenerate runs. Encode as null rather than corrupt the doc.
        out += "null";
        return *this;
    }
    char buf[40];
    // %.17g: shortest-is-nice but exactness matters more — every double
    // round-trips bit-exactly, keeping artifacts byte-deterministic.
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    out += '"';
    out += jsonEscape(v);
    out += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out += v ? "true" : "false";
    return *this;
}

const JsonValue *
JsonValue::find(const std::string &name) const
{
    for (const auto &[key, val] : object) {
        if (key == name)
            return &val;
    }
    return nullptr;
}

namespace {

/** Recursive-descent parser state over the input text. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error,
           JsonParseError *kind)
        : text(text), err(error), kind(kind)
    {
        if (kind != nullptr)
            *kind = JsonParseError::None;
    }

    std::optional<JsonValue>
    document()
    {
        auto v = parseValue();
        if (!v)
            return std::nullopt;
        skipWs();
        if (pos != text.size())
            return fail("trailing characters after document");
        return v;
    }

  private:
    std::optional<JsonValue>
    fail(const std::string &what,
         JsonParseError why = JsonParseError::Malformed)
    {
        if (err != nullptr)
            *err = what + " at offset " + std::to_string(pos);
        if (kind != nullptr)
            *kind = why;
        return std::nullopt;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        size_t len = 0;
        while (word[len] != '\0')
            ++len;
        if (text.compare(pos, len, word) != 0)
            return false;
        pos += len;
        return true;
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"'))
            return std::nullopt;
        std::string out;
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                break;
            char esc = text[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    return std::nullopt;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return std::nullopt;
                }
                // The writer only emits \u for control characters; a
                // byte-wide append covers everything we produce.
                out += static_cast<char>(code & 0xFF);
                break;
              }
              default:
                return std::nullopt;
            }
        }
        return std::nullopt; // unterminated
    }

    /** Every nested value enters here, so the depth bound counts each
     *  level once. */
    std::optional<JsonValue>
    parseValue()
    {
        if (depth == kMaxJsonDepth)
            return fail("nesting deeper than " +
                            std::to_string(kMaxJsonDepth) + " levels",
                        JsonParseError::TooDeep);
        ++depth;
        std::optional<JsonValue> v = parseAny();
        --depth;
        return v;
    }

    std::optional<JsonValue>
    parseAny()
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        JsonValue v;
        if (c == '{') {
            ++pos;
            v.type = JsonValue::Type::Object;
            skipWs();
            if (consume('}'))
                return v;
            while (true) {
                skipWs();
                auto key = parseString();
                if (!key)
                    return fail("expected object key");
                if (!consume(':'))
                    return fail("expected ':'");
                auto member = parseValue();
                if (!member)
                    return std::nullopt;
                v.object.emplace_back(std::move(*key), std::move(*member));
                if (consume(','))
                    continue;
                if (consume('}'))
                    return v;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            v.type = JsonValue::Type::Array;
            skipWs();
            if (consume(']'))
                return v;
            while (true) {
                auto element = parseValue();
                if (!element)
                    return std::nullopt;
                v.array.push_back(std::move(*element));
                if (consume(','))
                    continue;
                if (consume(']'))
                    return v;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            auto s = parseString();
            if (!s)
                return fail("malformed string");
            v.type = JsonValue::Type::String;
            v.string = std::move(*s);
            return v;
        }
        if (c == 't') {
            if (!literal("true"))
                return fail("malformed literal");
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return v;
        }
        if (c == 'f') {
            if (!literal("false"))
                return fail("malformed literal");
            v.type = JsonValue::Type::Bool;
            v.boolean = false;
            return v;
        }
        if (c == 'n') {
            if (!literal("null"))
                return fail("malformed literal");
            v.type = JsonValue::Type::Null;
            return v;
        }
        // Number.
        const char *start = text.c_str() + pos;
        char *end = nullptr;
        double num = std::strtod(start, &end);
        if (end == start)
            return fail("expected a value");
        pos += static_cast<size_t>(end - start);
        v.type = JsonValue::Type::Number;
        v.number = num;
        return v;
    }

    const std::string &text;
    std::string *err;
    JsonParseError *kind;
    size_t pos = 0;
    size_t depth = 0;
};

} // namespace

std::optional<JsonValue>
parseJson(const std::string &text, std::string *error, JsonParseError *kind)
{
    return Parser(text, error, kind).document();
}

} // namespace eip::obs
