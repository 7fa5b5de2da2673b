// Minimal JSON reader for the observability tooling (`opc trace diff`,
// report_from_json).  Writing is done with hand-formatted deterministic
// emitters in report.cc / export_chrome.cc — this type is read-only glue,
// not a general-purpose JSON library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace opc::obs {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; returns null-typed sentinel when absent.
  [[nodiscard]] const JsonValue& operator[](std::string_view key) const;

  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const {
    return type == Type::kNumber ? static_cast<std::int64_t>(number)
                                 : fallback;
  }
  [[nodiscard]] double as_double(double fallback = 0.0) const {
    return type == Type::kNumber ? number : fallback;
  }
  [[nodiscard]] const std::string& as_string() const { return str; }
};

/// Parse a complete JSON document.  Returns false (and leaves `out`
/// unspecified) on malformed input or trailing garbage.
[[nodiscard]] bool json_parse(std::string_view text, JsonValue& out);

}  // namespace opc::obs
