// bench_json — machine-readable JSON emission for the bench binaries
// (the BENCH_core.json baseline workflow; docs/PERF.md).
//
// Dependency-free by design: the image ships no JSON library, and flat
// numeric records do not need one.  JsonObject is a tiny ordered builder —
// keys render in insertion order, so checked-in baselines diff cleanly run
// over run — plus the shared `--bench-json <path>` plumbing every bench main
// uses (the same flag parser as `optcm`).

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsm/common/flags.h"
#include "dsm/metrics/table.h"

namespace dsm::bench {

/// Ordered JSON object builder: numbers, strings, nested objects, and tables
/// (rendered as arrays of row objects keyed by the table headers).
class JsonObject {
 public:
  JsonObject() = default;
  JsonObject(JsonObject&&) = default;
  JsonObject& operator=(JsonObject&&) = default;

  template <typename T>
  JsonObject& num(const std::string& key, T v) {
    static_assert(std::is_arithmetic_v<T>);
    entries_.push_back({key, number_str(v), nullptr, {}});
    return *this;
  }

  JsonObject& str(const std::string& key, const std::string& v) {
    entries_.push_back({key, quote(v), nullptr, {}});
    return *this;
  }

  JsonObject& obj(const std::string& key, JsonObject child) {
    entries_.push_back(
        {key, "", std::make_unique<JsonObject>(std::move(child)), {}});
    return *this;
  }

  /// A Table as an array of row objects; cells that parse fully as numbers
  /// are emitted as numbers, everything else as strings.
  JsonObject& table(const std::string& key, const Table& t) {
    std::vector<std::string> rows;
    rows.reserve(t.rows());
    for (std::size_t i = 0; i < t.rows(); ++i) {
      const auto& cells = t.row_at(i);
      std::string row = "{";
      for (std::size_t c = 0; c < cells.size(); ++c) {
        if (c > 0) row += ", ";
        row += quote(t.headers()[c]) + ": " + cell_json(cells[c]);
      }
      row += "}";
      rows.push_back(std::move(row));
    }
    entries_.push_back({key, "", nullptr, std::move(rows)});
    return *this;
  }

  [[nodiscard]] std::string render(int indent = 0) const {
    const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
    std::string out = "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out += pad + quote(e.key) + ": ";
      if (e.child != nullptr) {
        out += e.child->render(indent + 2);
      } else if (!e.scalar.empty()) {
        out += e.scalar;
      } else {
        out += "[";
        for (std::size_t r = 0; r < e.rows.size(); ++r) {
          out += "\n" + pad + "  " + e.rows[r];
          if (r + 1 < e.rows.size()) out += ",";
        }
        out += e.rows.empty() ? "]" : "\n" + pad + "]";
      }
      if (i + 1 < entries_.size()) out += ",";
      out += "\n";
    }
    out += std::string(static_cast<std::size_t>(indent), ' ') + "}";
    return out;
  }

 private:
  struct Entry {
    std::string key;
    std::string scalar;  ///< pre-rendered number or quoted string
    std::unique_ptr<JsonObject> child;
    std::vector<std::string> rows;  ///< table rows, pre-rendered compact
  };

  template <typename T>
  static std::string number_str(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.15g", static_cast<double>(v));
      // JSON has no inf/nan literals; a bench emitting one is reporting a
      // division by a zero denominator, which callers guard against.
      return buf;
    } else {
      return std::to_string(v);
    }
  }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
      switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            out += buf;
          } else {
            out += ch;
          }
      }
    }
    return out + "\"";
  }

  static std::string cell_json(const std::string& cell) {
    if (!cell.empty()) {
      char* end = nullptr;
      (void)std::strtod(cell.c_str(), &end);
      if (end == cell.c_str() + cell.size()) return cell;  // pure number
    }
    return quote(cell);
  }

  std::vector<Entry> entries_;
};

// -- the shared --bench-json plumbing ----------------------------------------

inline std::string& bench_json_path() {
  static std::string path;
  return path;
}

inline JsonObject& bench_json_doc() {
  static JsonObject doc;
  return doc;
}

/// Call at the top of an exp_* main: parses --bench-json (detached form
/// included) and rejects anything else.  Returns false on a bad command line.
inline bool init_bench_json(int argc, const char* const* argv) {
  static constexpr FlagSpec kFlags[] = {
      {.name = "bench-json", .type = FlagType::kText, .value = "PATH",
       .help = "also write every table as one JSON document to PATH"}};
  std::string error;
  const auto flags = parse_flags(
      kFlags, std::span(argv + 1, static_cast<std::size_t>(argc - 1)),
      kAnyCommand, error);
  if (flags && flags->positional().empty()) {
    bench_json_path() = flags->text("bench-json");
    return true;
  }
  if (flags) error = "unexpected argument '" + flags->positional()[0] + "'";
  std::fprintf(stderr, "%s: %s\nusage: %s [--flag=value ...]\n%s", argv[0],
               error.c_str(), argv[0], flag_usage(kFlags, kAnyCommand).c_str());
  return false;
}

/// Call at the end of an exp_* main: writes every emit()ed table (plus any
/// extra sections the bench added to bench_json_doc()) as one JSON document.
/// No-op without --bench-json; an unwritable path is a hard, visible error.
inline bool finish_bench_json(const std::string& binary) {
  const std::string& path = bench_json_path();
  if (path.empty()) return true;
  JsonObject doc;
  doc.str("schema", "optcm-bench-v1");
  doc.str("binary", binary);
  doc.obj("tables", std::move(bench_json_doc()));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const std::string text = doc.render() + "\n";
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("bench json written to %s\n", path.c_str());
  return true;
}

}  // namespace dsm::bench
