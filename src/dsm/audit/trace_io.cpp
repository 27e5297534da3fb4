#include "dsm/audit/trace_io.h"

#include <cinttypes>
#include <cstdio>
#include <map>

namespace dsm {
namespace {

// ---------------------------------------------------------------- emitting

void emit_kv(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRIu64, key, v);
  out += buf;
}

void emit_kv_i(std::string& out, const char* key, std::int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%" PRId64, key, v);
  out += buf;
}

void emit_kv_s(std::string& out, const char* key, const char* v) {
  out += "\"";
  out += key;
  out += "\":\"";
  out += v;
  out += "\"";
}

// ----------------------------------------------------------------- parsing

/// Flat-object parser for the exact schema this module emits.  Values are
/// unsigned/signed integers, bare strings (no escapes needed — our strings
/// are identifiers) or arrays of unsigned integers.
class FlatJson {
 public:
  [[nodiscard]] static std::optional<FlatJson> parse(std::string_view line);

  [[nodiscard]] std::optional<std::uint64_t> u64(const std::string& key) const {
    const auto it = nums_.find(key);
    if (it == nums_.end()) return std::nullopt;
    return static_cast<std::uint64_t>(it->second);
  }
  [[nodiscard]] std::optional<std::int64_t> i64(const std::string& key) const {
    const auto it = nums_.find(key);
    if (it == nums_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::optional<std::string> str(const std::string& key) const {
    const auto it = strs_.find(key);
    if (it == strs_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::optional<std::vector<std::uint64_t>> arr(
      const std::string& key) const {
    const auto it = arrs_.find(key);
    if (it == arrs_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::map<std::string, std::int64_t> nums_;
  std::map<std::string, std::string> strs_;
  std::map<std::string, std::vector<std::uint64_t>> arrs_;
};

std::optional<FlatJson> FlatJson::parse(std::string_view line) {
  FlatJson out;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  const auto expect = [&](char ch) {
    skip_ws();
    if (i >= line.size() || line[i] != ch) return false;
    ++i;
    return true;
  };
  const auto parse_string = [&]() -> std::optional<std::string> {
    if (!expect('"')) return std::nullopt;
    std::string s;
    while (i < line.size() && line[i] != '"') s.push_back(line[i++]);
    if (i >= line.size()) return std::nullopt;
    ++i;  // closing quote
    return s;
  };
  const auto parse_int = [&]() -> std::optional<std::int64_t> {
    skip_ws();
    const std::size_t start = i;
    if (i < line.size() && line[i] == '-') ++i;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') ++i;
    if (i == start) return std::nullopt;
    return std::strtoll(std::string(line.substr(start, i - start)).c_str(),
                        nullptr, 10);
  };

  if (!expect('{')) return std::nullopt;
  skip_ws();
  if (i < line.size() && line[i] == '}') return out;  // empty object
  while (true) {
    const auto key = parse_string();
    if (!key || !expect(':')) return std::nullopt;
    skip_ws();
    if (i >= line.size()) return std::nullopt;
    if (line[i] == '"') {
      const auto v = parse_string();
      if (!v) return std::nullopt;
      out.strs_[*key] = *v;
    } else if (line[i] == '[') {
      ++i;
      std::vector<std::uint64_t> values;
      skip_ws();
      if (i < line.size() && line[i] == ']') {
        ++i;
      } else {
        while (true) {
          const auto v = parse_int();
          if (!v || *v < 0) return std::nullopt;
          values.push_back(static_cast<std::uint64_t>(*v));
          skip_ws();
          if (i < line.size() && line[i] == ',') {
            ++i;
            continue;
          }
          if (!expect(']')) return std::nullopt;
          break;
        }
      }
      out.arrs_[*key] = std::move(values);
    } else {
      const auto v = parse_int();
      if (!v) return std::nullopt;
      out.nums_[*key] = *v;
    }
    skip_ws();
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    if (!expect('}')) return std::nullopt;
    break;
  }
  return out;
}

std::optional<EvKind> parse_ev_kind(const std::string& name) {
  if (name == "send") return EvKind::kSend;
  if (name == "receipt") return EvKind::kReceipt;
  if (name == "apply") return EvKind::kApply;
  if (name == "return") return EvKind::kReturn;
  if (name == "skip") return EvKind::kSkip;
  return std::nullopt;
}

}  // namespace

std::string export_trace_jsonl(const GlobalHistory& history,
                               const std::vector<RunEvent>& events) {
  std::string out;
  out += "{";
  emit_kv_s(out, "type", "meta");
  out += ",";
  emit_kv(out, "procs", history.n_procs());
  out += ",";
  emit_kv(out, "vars", history.n_vars());
  out += "}\n";

  // Operations in per-process program order (import re-appends them the same
  // way, so WriteIds are reproduced exactly).  Interleave round-robin by
  // program-order index to keep the flat order deterministic.
  std::size_t longest = 0;
  for (ProcessId p = 0; p < history.n_procs(); ++p) {
    longest = std::max(longest, history.local(p).size());
  }
  for (std::size_t idx = 0; idx < longest; ++idx) {
    for (ProcessId p = 0; p < history.n_procs(); ++p) {
      const auto ops = history.local(p);
      if (idx >= ops.size()) continue;
      const Operation& op = history.op(ops[idx]);
      out += "{";
      emit_kv_s(out, "type", "op");
      out += ",";
      emit_kv(out, "proc", op.proc);
      out += ",";
      emit_kv_s(out, "kind", op.is_write() ? "write" : "read");
      out += ",";
      emit_kv(out, "var", op.var);
      out += ",";
      emit_kv_i(out, "value", op.value);
      out += ",";
      emit_kv(out, "wproc", op.write_id.proc);
      out += ",";
      emit_kv(out, "wseq", op.write_id.seq);
      // Typed fields ride along only for non-register specs, so a classic
      // register trace is byte-for-byte what it was before the extension.
      if (op.spec != SpecId::kRegister) {
        out += ",";
        emit_kv(out, "spec", static_cast<std::uint64_t>(op.spec));
        out += ",";
        emit_kv(out, "opcode", static_cast<std::uint64_t>(op.opcode));
        out += ",";
        emit_kv_i(out, "arg2", op.arg2);
        if (op.is_read()) {
          out += ",\"visible\":[";
          for (std::size_t v = 0; v < op.visible.size(); ++v) {
            if (v != 0) out += ",";
            char buf[24];
            std::snprintf(buf, sizeof buf, "%" PRIu64, op.visible[v]);
            out += buf;
          }
          out += "]";
        }
      }
      out += "}\n";
    }
  }

  for (const auto& e : events) {
    out += "{";
    emit_kv_s(out, "type", "ev");
    out += ",";
    emit_kv(out, "order", e.order);
    out += ",";
    emit_kv(out, "time", e.time);
    out += ",";
    emit_kv(out, "at", e.at);
    out += ",";
    emit_kv_s(out, "kind", to_string(e.kind));
    out += ",";
    emit_kv(out, "wproc", e.write.proc);
    out += ",";
    emit_kv(out, "wseq", e.write.seq);
    out += ",";
    emit_kv(out, "oproc", e.other.proc);
    out += ",";
    emit_kv(out, "oseq", e.other.seq);
    out += ",";
    emit_kv(out, "var", e.var);
    out += ",";
    emit_kv_i(out, "value", e.value);
    out += ",";
    emit_kv(out, "delayed", e.delayed ? 1 : 0);
    out += ",\"clock\":[";
    const auto comps = e.clock.components();
    for (std::size_t i = 0; i < comps.size(); ++i) {
      if (i != 0) out += ",";
      char buf[24];
      std::snprintf(buf, sizeof buf, "%" PRIu64, comps[i]);
      out += buf;
    }
    out += "]}\n";
  }
  return out;
}

std::optional<ImportedRun> import_trace_jsonl(std::string_view text) {
  std::optional<GlobalHistory> history;
  std::vector<RunEvent> events;

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;

    const auto obj = FlatJson::parse(line);
    if (!obj) return std::nullopt;
    const auto type = obj->str("type");
    if (!type) return std::nullopt;

    if (*type == "meta") {
      const auto procs = obj->u64("procs");
      const auto vars = obj->u64("vars");
      if (!procs || !vars || *procs == 0 || *vars == 0) return std::nullopt;
      history.emplace(static_cast<std::size_t>(*procs),
                      static_cast<std::size_t>(*vars));
      continue;
    }
    if (!history) return std::nullopt;  // meta must come first

    if (*type == "op") {
      const auto proc = obj->u64("proc");
      const auto kind = obj->str("kind");
      const auto var = obj->u64("var");
      const auto value = obj->i64("value");
      const auto wproc = obj->u64("wproc");
      const auto wseq = obj->u64("wseq");
      if (!proc || !kind || !var || !value || !wproc || !wseq) {
        return std::nullopt;
      }
      // Typed fields are optional; their presence marks a non-register op.
      const auto spec_raw = obj->u64("spec");
      const auto opcode_raw = obj->u64("opcode");
      const auto arg2 = obj->i64("arg2");
      if (spec_raw.has_value() != opcode_raw.has_value() ||
          spec_raw.has_value() != arg2.has_value()) {
        return std::nullopt;
      }
      if (spec_raw &&
          (*spec_raw == 0 || *spec_raw > 0xff || *opcode_raw > 0xff ||
           !valid_spec_id(static_cast<std::uint8_t>(*spec_raw)) ||
           !valid_opcode(static_cast<std::uint8_t>(*opcode_raw)))) {
        return std::nullopt;
      }
      Operation op;
      op.proc = static_cast<ProcessId>(*proc);
      op.var = static_cast<VarId>(*var);
      op.value = *value;
      op.write_id = WriteId{static_cast<ProcessId>(*wproc), *wseq};
      if (*kind == "read") {
        op.kind = OpKind::kRead;
      } else if (*kind != "write") {
        return std::nullopt;
      }
      if (spec_raw) {
        // An accessor's exported value is the RETURNED value; the query
        // operand rode in arg2 (Operation's accessor layout).
        op.spec = static_cast<SpecId>(*spec_raw);
        op.opcode = static_cast<OpCode>(*opcode_raw);
        op.arg2 = *arg2;
        if (is_mutation(op.opcode) != op.is_write()) return std::nullopt;
        if (op.is_read()) {
          auto visible = obj->arr("visible");
          if (!visible) return std::nullopt;
          op.visible = std::move(*visible);
        }
      }
      // Import must reproduce the exported ids (program order guarantees
      // it); a mismatch means the stream was reordered or corrupted.
      if (op.write_id.proc != *wproc ||
          history->op(history->append(op)).write_id != op.write_id) {
        return std::nullopt;
      }
      continue;
    }

    if (*type == "ev") {
      RunEvent e;
      const auto order = obj->u64("order");
      const auto time = obj->u64("time");
      const auto at = obj->u64("at");
      const auto kind = obj->str("kind");
      const auto wproc = obj->u64("wproc");
      const auto wseq = obj->u64("wseq");
      const auto oproc = obj->u64("oproc");
      const auto oseq = obj->u64("oseq");
      const auto var = obj->u64("var");
      const auto value = obj->i64("value");
      const auto delayed = obj->u64("delayed");
      const auto clock = obj->arr("clock");
      if (!order || !time || !at || !kind || !wproc || !wseq || !oproc ||
          !oseq || !var || !value || !delayed || !clock) {
        return std::nullopt;
      }
      const auto parsed_kind = parse_ev_kind(*kind);
      if (!parsed_kind) return std::nullopt;
      e.order = *order;
      e.time = *time;
      e.at = static_cast<ProcessId>(*at);
      e.kind = *parsed_kind;
      e.write = WriteId{static_cast<ProcessId>(*wproc), *wseq};
      e.other = WriteId{static_cast<ProcessId>(*oproc), *oseq};
      e.var = static_cast<VarId>(*var);
      e.value = *value;
      e.delayed = *delayed != 0;
      e.clock = VectorClock{std::move(*clock)};
      events.push_back(std::move(e));
      continue;
    }
    return std::nullopt;  // unknown type
  }

  if (!history) return std::nullopt;
  return ImportedRun{std::move(*history), std::move(events)};
}

}  // namespace dsm
