// rumor/json: the one JSON layer, below every other module.
//
// Every JSON document the library writes or reads goes through this
// module: experiment and campaign reports, checkpoint snapshots, campaign
// specs, the trace file and the graph store's provenance string. It owns
// the value type, its two renderings (compact and indented), the parser,
// the one string escaper, and the typed readers that check a document's
// numbers, strings and booleans before the caller stores them. It includes
// no other module, so every layer above may use it.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rumor::json {

/// Why Json::parse refused a document: the byte offset of the first byte
/// that does not fit, and what the grammar expected there ("a value",
/// "':'", "end of input", ...). `expected` points at a string literal.
struct ParseError {
  std::size_t offset = 0;
  const char* expected = "";
};

/// Minimal JSON document: ordered objects, arrays, numbers, strings,
/// booleans, null. Supports both serialization (the bench driver's output)
/// and parsing (specs, checkpoints, BENCH_*.json consumers). Not a
/// general-purpose JSON library — just enough for experiment reports.
/// Numbers are IEEE doubles: integers above 2^53 lose precision, so the
/// CLI rejects --seed/--trials values beyond that.
class Json {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() noexcept : type_(Type::kNull) {}
  Json(bool b) noexcept : type_(Type::kBool), bool_(b) {}                    // NOLINT(google-explicit-constructor)
  Json(double v) noexcept : type_(Type::kNumber), number_(v) {}              // NOLINT(google-explicit-constructor)
  Json(int v) noexcept : Json(static_cast<double>(v)) {}                     // NOLINT(google-explicit-constructor)
  Json(unsigned v) noexcept : Json(static_cast<double>(v)) {}                // NOLINT(google-explicit-constructor)
  Json(std::uint64_t v) noexcept : Json(static_cast<double>(v)) {}           // NOLINT(google-explicit-constructor)
  Json(std::int64_t v) noexcept : Json(static_cast<double>(v)) {}            // NOLINT(google-explicit-constructor)
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}       // NOLINT(google-explicit-constructor)
  Json(const char* s) : type_(Type::kString), string_(s) {}                  // NOLINT(google-explicit-constructor)

  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::kString; }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_number() const noexcept { return number_; }
  [[nodiscard]] const std::string& as_string() const noexcept { return string_; }

  /// Array append. Precondition: is_array().
  void push_back(Json v);
  /// Object insert-or-assign, preserving first-insertion order.
  /// Precondition: is_object(). Returns *this for chaining.
  Json& set(const std::string& key, Json value);
  /// Object lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;

  /// Array elements / object entries (empty for scalar types).
  [[nodiscard]] const std::vector<Json>& elements() const noexcept { return elements_; }
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& entries() const noexcept {
    return entries_;
  }
  /// Mutable entries view, so callers can move values out of a document
  /// they are consuming instead of deep-copying row arrays.
  [[nodiscard]] std::vector<std::pair<std::string, Json>>& mutable_entries() noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return type_ == Type::kObject ? entries_.size() : elements_.size();
  }

  /// Serializes; indent < 0 renders compact single-line JSON.
  [[nodiscard]] std::string dump(int indent = -1) const;
  /// Appends this value rendered as it appears `depth` levels deep inside
  /// a document dumped with `indent` (no leading pad, no trailing newline),
  /// so a caller can splice pre-rendered parts into one document's bytes.
  void dump_to(std::string& out, int indent, int depth) const;

  /// Parses a complete JSON document; nullopt on any syntax error, a number
  /// that is not a finite double, nesting deeper than 256, or trailing
  /// garbage. When `error` is given, a refusal also says where and why.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text,
                                                 ParseError* error = nullptr);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> elements_;                         // kArray
  std::vector<std::pair<std::string, Json>> entries_;  // kObject
};

/// Appends `s` as a JSON string literal: quoted, with '"', '\\', \n, \t and
/// \r escaped by name, other bytes below 0x20 as \u00XX, and every other
/// byte (0x7f and UTF-8 included) verbatim. The one escaper: Json::dump and
/// every hand-rendered document use it.
void append_escaped(std::string& out, std::string_view s);

/// Version of the JSON report layout rumor_bench emits (experiment reports
/// and campaign reports alike), of the campaign checkpoint snapshot's
/// report-facing fields and of the trace file's `otherData` block, stamped
/// top-level as "schema_version". Bump it on renames/removals/semantic
/// changes of existing keys; purely additive keys keep the number
/// (consumers must ignore keys they do not know). The Python tools under
/// tools/ warn on versions newer than they understand; documents without
/// the key predate versioning and are read as version 1. Compatibility
/// policy: bench/README.md, "Report schema versioning".
inline constexpr std::uint64_t kReportSchemaVersion = 1;

/// Every integer in [0, 2^53] is exactly a double, so exactly a JSON
/// number: counts this program writes into a document stop here.
inline constexpr std::uint64_t kMaxExactInteger = std::uint64_t{1} << 53;

// --- Typed readers -------------------------------------------------------------
//
// Each reads `v`, the value of `key`, into `out` and returns "", or leaves
// `out` alone and returns an error that names the key and what it must be.

/// "key '<key>' must be <what>": the text every reader's error starts with.
std::string must_be(std::string_view key, const std::string& what);

std::string read(std::string_view key, const Json& v, double& out);
std::string read(std::string_view key, const Json& v, std::string& out);
std::string read(std::string_view key, const Json& v, bool& out);
/// A whole number in [0, max]; the error gives the number read, if any.
std::string read_uint(std::string_view key, const Json& v, std::uint64_t& out,
                      std::uint64_t max);

/// An unsigned field: a whole number that fits T, and at most `max`.
template <std::unsigned_integral T>
  requires(!std::same_as<T, bool>)
std::string read(std::string_view key, const Json& v, T& out,
                 std::uint64_t max = std::numeric_limits<T>::max()) {
  std::uint64_t x = 0;
  std::string error = read_uint(key, v, x, max);
  if (error.empty()) out = static_cast<T>(x);
  return error;
}

/// `obj`'s member `key`; throws std::runtime_error("<ctx>: ...") when `obj`
/// is not an object or has no such key.
const Json& member(const Json& obj, std::string_view key, const std::string& ctx);
/// The elements of `obj`'s array member `key`; throws like member(), and
/// when the member is not an array.
const std::vector<Json>& array_member(const Json& obj, std::string_view key,
                                      const std::string& ctx);

/// `obj`'s member `key` through the typed reader for T, throwing
/// std::runtime_error("<ctx>: <error>"). For documents this program wrote
/// (checkpoints): unsigned values also stop at kMaxExactInteger.
template <class T>
[[nodiscard]] T get(const Json& obj, std::string_view key, const std::string& ctx) {
  T out{};
  std::string error;
  if constexpr (std::unsigned_integral<T> && !std::same_as<T, bool>) {
    error = read(key, member(obj, key, ctx), out,
                 std::min<std::uint64_t>(std::numeric_limits<T>::max(), kMaxExactInteger));
  } else {
    error = read(key, member(obj, key, ctx), out);
  }
  if (!error.empty()) throw std::runtime_error(ctx + ": " + error);
  return out;
}

/// Reads and parses one JSON file; nullopt, with a `prog`-prefixed
/// diagnostic on `err`, on a missing file or a malformed document (naming
/// the byte offset and what was expected there).
[[nodiscard]] std::optional<Json> read_json_file(const std::string& path, const char* prog,
                                                 std::ostream& err);

}  // namespace rumor::json
