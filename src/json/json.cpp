#include "json/json.hpp"

#include <bit>
#include <cassert>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <ostream>

#include <fcntl.h>
#include <limits.h>
#include <sys/uio.h>
#include <unistd.h>

namespace rumor::json {

void Json::push_back(Json v) {
  assert(type_ == Type::kArray);
  elements_.push_back(std::move(v));
}

Json& Json::set(const std::string& key, Json value) {
  assert(type_ == Type::kObject);
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  entries_.emplace_back(key, std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

namespace {

/// Numbers print as integers when they are integers below 1e15 (the
/// common case: node counts, trial counts, rounds), otherwise as `%.15g`,
/// widened to 16 and then 17 significant digits until the text parses back
/// to the same double — dump/parse cycles of BENCH_*.json reports and
/// checkpoints must reproduce values exactly. to_chars/from_chars produce
/// and parse printf's digits without snprintf's or strtod's locale work.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    out += "null";
    return;
  }
  char buf[40];
  char* const last = buf + sizeof buf;
  std::to_chars_result r{};
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    r = std::to_chars(buf, last, v, std::chars_format::fixed, 0);
  } else {
    for (int precision : {15, 16, 17}) {
      r = std::to_chars(buf, last, v, std::chars_format::general, precision);
      double back = 0.0;
      if (std::from_chars(buf, r.ptr, back).ec == std::errc() && back == v) break;
    }
  }
  out.append(buf, r.ptr);
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::size_t pad = pretty ? static_cast<std::size_t>(indent * (depth + 1)) : 0;
  const std::size_t close_pad = pretty ? static_cast<std::size_t>(indent * depth) : 0;
  const char* nl = pretty ? "\n" : "";
  const char* kv_sep = pretty ? ": " : ":";
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: append_number(out, number_); break;
    case Type::kString: append_escaped(out, string_); break;
    case Type::kArray: {
      if (elements_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        out.append(pad, ' ');
        elements_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < elements_.size()) out += ',';
        out += nl;
      }
      out.append(close_pad, ' ');
      out += ']';
      break;
    }
    case Type::kObject: {
      if (entries_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        out.append(pad, ' ');
        append_escaped(out, entries_[i].first);
        out += kv_sep;
        entries_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < entries_.size()) out += ',';
        out += nl;
      }
      out.append(close_pad, ' ');
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser over a string_view cursor. Nesting depth
/// is bounded so a truncated or hostile document ("[[[[...") yields the
/// documented nullopt instead of overflowing the stack. The first refusal
/// records its offset and expectation and unwinds with nullopt.
class JsonParser {
 public:
  static constexpr int kMaxDepth = 256;

  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<Json> parse_document() {
    auto v = parse_value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return refuse("end of input");  // trailing garbage
    return v;
  }

  [[nodiscard]] const ParseError& error() const noexcept { return error_; }

 private:
  std::nullopt_t refuse(const char* expected) { return refuse_at(pos_, expected); }
  std::nullopt_t refuse_at(std::size_t offset, const char* expected) {
    error_ = {offset, expected};
    return std::nullopt;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  /// A string; the cursor is at its opening quote, or at an object key's.
  std::optional<std::string> parse_string_body() {
    if (!consume('"')) return refuse("a string key");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return refuse("a string escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            const char* const hex = text_.data() + pos_;
            if (text_.size() - pos_ < 4 || std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
              return refuse("four hex digits");
            }
            pos_ += 4;
            // Reports only use ASCII; encode BMP code points as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return refuse_at(pos_ - 1, "a string escape");
        }
      } else {
        out += c;
      }
    }
    return refuse("a closing '\"'");  // unterminated
  }

  std::optional<Json> parse_value() {  // NOLINT(misc-no-recursion)
    skip_ws();
    if (pos_ >= text_.size()) return refuse("a value");
    if (depth_ >= kMaxDepth) return refuse("nesting at most 256 deep");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      ++pos_;
      ++depth_;
      auto v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') {
      auto s = parse_string_body();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (consume_literal("true")) return Json(true);
    if (consume_literal("false")) return Json(false);
    if (consume_literal("null")) return Json();
    return parse_number();
  }

  /// A number token, parsed by from_chars on the text itself: the whole
  /// token must be one finite double. Overflow (1e999) and underflow past
  /// the smallest subnormal are refused, never read as inf or 0.
  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return refuse("a value");
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    double v = 0.0;
    const auto r = std::from_chars(first, last, v);
    if (r.ec != std::errc() || r.ptr != last) return refuse_at(start, "a finite double");
    return Json(v);
  }

  /// The elements after '['.
  std::optional<Json> parse_array() {  // NOLINT(misc-no-recursion)
    Json arr = Json::array();
    if (consume(']')) return arr;
    for (;;) {
      auto v = parse_value();
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
      if (consume(',')) continue;
      if (consume(']')) return arr;
      return refuse("',' or ']'");
    }
  }

  /// The members after '{'.
  std::optional<Json> parse_object() {  // NOLINT(misc-no-recursion)
    Json obj = Json::object();
    if (consume('}')) return obj;
    for (;;) {
      auto key = parse_string_body();
      if (!key) return std::nullopt;
      if (!consume(':')) return refuse("':'");
      auto v = parse_value();
      if (!v) return std::nullopt;
      obj.set(*key, std::move(*v));
      if (consume(',')) continue;
      if (consume('}')) return obj;
      return refuse("',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  ParseError error_;
};

}  // namespace

std::string must_be(std::string_view key, const std::string& what) {
  return "key '" + std::string(key) + "' must be " + what;
}

std::optional<Json> Json::parse(std::string_view text, ParseError* error) {
  JsonParser parser(text);
  auto doc = parser.parse_document();
  if (!doc && error != nullptr) *error = parser.error();
  return doc;
}

// --- Typed readers -------------------------------------------------------------

std::string read(std::string_view key, const Json& v, double& out) {
  if (!v.is_number()) return must_be(key, "a number");
  out = v.as_number();
  return {};
}

std::string read(std::string_view key, const Json& v, std::string& out) {
  if (!v.is_string()) return must_be(key, "a string");
  out = v.as_string();
  return {};
}

std::string read(std::string_view key, const Json& v, bool& out) {
  if (v.type() != Json::Type::kBool) return must_be(key, "a boolean");
  out = v.as_bool();
  return {};
}

std::string read_uint(std::string_view key, const Json& v, std::uint64_t& out,
                      std::uint64_t max) {
  // JSON numbers are doubles: check the value is whole and below 2^64
  // before the cast, then compare the integer with `max` exactly.
  const double x = v.is_number() ? v.as_number() : -1.0;
  if (x >= 0.0 && x < 0x1p64 && x == std::floor(x) && static_cast<std::uint64_t>(x) <= max) {
    out = static_cast<std::uint64_t>(x);
    return {};
  }
  // max is a field's width (2^k - 1) or kMaxExactInteger.
  std::string what = (max & (max + 1)) == 0
                         ? "a non-negative integer below 2^" + std::to_string(std::bit_width(max))
                         : "a non-negative integer at most " + std::to_string(max);
  if (v.is_number()) what += ", got " + v.dump();
  return must_be(key, what);
}

const Json& member(const Json& obj, std::string_view key, const std::string& ctx) {
  if (!obj.is_object()) throw std::runtime_error(ctx + ": expected a JSON object");
  const Json* v = obj.find(key);
  if (v == nullptr) throw std::runtime_error(ctx + ": missing key '" + std::string(key) + "'");
  return *v;
}

const std::vector<Json>& array_member(const Json& obj, std::string_view key,
                                      const std::string& ctx) {
  const Json& v = member(obj, key, ctx);
  if (!v.is_array()) throw std::runtime_error(ctx + ": " + must_be(key, "an array"));
  return v.elements();
}

std::optional<Json> read_json_file(const std::string& path, const char* prog,
                                   std::ostream& err) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    err << prog << ": cannot read " << path << "\n";
    return std::nullopt;
  }
  const std::string text{std::istreambuf_iterator<char>(file), {}};
  ParseError error;
  auto doc = Json::parse(text, &error);
  if (!doc) {
    err << prog << ": " << path << ": invalid JSON at byte " << error.offset << ": expected "
        << error.expected << "\n";
  }
  return doc;
}

namespace {

/// fsync on a directory makes the rename of a child durable. Failure is
/// reported like any other error: a checkpoint that silently is not on disk
/// defeats the whole contract.
bool fsync_parent_dir(const std::string& path, std::string& error) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    error = "cannot open directory " + dir + " for fsync: " + std::strerror(errno);
    return false;
  }
  if (::fsync(fd) != 0) {
    error = "cannot fsync directory " + dir + ": " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  ::close(fd);
  return true;
}

}  // namespace

bool write_file_atomic(const std::string& path, std::span<const std::string_view> parts,
                       std::string& error) {
  // The temp file is a *sibling* of the destination (same directory, hence
  // same filesystem) so the rename is atomic, and pid-unique so concurrent
  // writers with the same destination cannot interleave into one temp file;
  // last rename wins with a complete file either way.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    error = "cannot open " + tmp + " for writing: " + std::strerror(errno);
    return false;
  }
  auto fail = [&](const std::string& what) {
    error = what;
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  };
  // One writev per IOV_MAX parts; a short write resumes inside the part it
  // stopped in.
  std::vector<::iovec> iov;
  iov.reserve(std::min<std::size_t>(parts.size(), IOV_MAX));
  std::size_t next = 0;     // first part not yet in an iovec batch
  std::size_t offset = 0;   // bytes of parts[next] already written
  while (next < parts.size()) {
    iov.clear();
    for (std::size_t p = next; p < parts.size() && iov.size() < IOV_MAX; ++p) {
      const std::size_t skip = p == next ? offset : 0;
      if (parts[p].size() == skip) continue;
      iov.push_back({const_cast<char*>(parts[p].data()) + skip, parts[p].size() - skip});
    }
    if (iov.empty()) break;
    const ::ssize_t n = ::writev(fd, iov.data(), static_cast<int>(iov.size()));
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("short write to " + tmp + ": " + std::strerror(errno));
    }
    auto left = static_cast<std::size_t>(n);
    while (next < parts.size() && left >= parts[next].size() - offset) {
      left -= parts[next].size() - offset;
      offset = 0;
      ++next;
    }
    offset += left;
  }
  // fsync before rename: otherwise a crash can leave the *renamed* file
  // empty (metadata ordered before data), which for a checkpoint is worse
  // than no file at all.
  if (::fsync(fd) != 0) return fail("cannot fsync " + tmp + ": " + std::strerror(errno));
  if (::close(fd) != 0) {
    error = "cannot close " + tmp + ": " + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    error = "cannot rename " + tmp + " to " + path + ": " + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  return fsync_parent_dir(path, error);
}

bool write_file_atomic(const std::string& path, const std::string& contents,
                       std::string& error) {
  const std::string_view whole = contents;
  return write_file_atomic(path, std::span(&whole, 1), error);
}

}  // namespace rumor::json
