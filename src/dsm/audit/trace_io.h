// optcm — run-trace persistence (JSON Lines).
//
// A recorded run — the global history plus the ordered event log — exports
// to a self-describing JSONL stream and imports back losslessly, so runs can
// be archived, diffed, shipped in bug reports, and re-audited offline:
// ConsistencyChecker and OptimalityAuditor run unchanged on imported runs
// (`optcm replay <file>` does exactly that).
//
// Schema (one object per line):
//   {"type":"meta","procs":N,"vars":M}
//   {"type":"op","proc":p,"kind":"write|read","var":x,"value":v,
//    "wproc":j,"wseq":s}                        // wseq 0 encodes ⊥/no-write
//   {"type":"ev","order":o,"time":t,"at":p,"kind":"send|receipt|apply|
//    return|skip","wproc":j,"wseq":s,"oproc":j2,"oseq":s2,"var":x,
//    "value":v,"delayed":0|1,"clock":[...]}
//
// The parser accepts exactly this flat shape (it is not a general JSON
// library); any deviation yields std::nullopt rather than a partial run.
//
// JSONL is the file format (optcm run --export / optcm replay).  A live
// node ships its log in the binary record codec instead (run_recorder.h),
// which ProcessCluster::fetch_log turns into the same ImportedRun.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dsm/protocols/run_recorder.h"

namespace dsm {

struct ImportedRun {
  GlobalHistory history;
  std::vector<RunEvent> events;
};

/// Serializes the recorder's history and event log.
[[nodiscard]] std::string export_trace_jsonl(const GlobalHistory& history,
                                             const std::vector<RunEvent>& events);

[[nodiscard]] inline std::string export_trace_jsonl(const RunRecorder& rec) {
  return export_trace_jsonl(rec.history(), rec.events());
}

/// Parses a stream produced by export_trace_jsonl.  std::nullopt on any
/// malformed line, unknown type, or missing meta header.
[[nodiscard]] std::optional<ImportedRun> import_trace_jsonl(std::string_view text);

}  // namespace dsm
