// optcm — docs-check: keep the documentation honest.
//
// Runs as a ctest entry (`docs_check`, in the default suite) and verifies,
// for every markdown file at the repo top level and under docs/:
//
//   * every intra-repo markdown link resolves to an existing file
//     (external http(s)/mailto links and pure #anchors are skipped);
//   * every `optcm …` command shown in a fenced code block parses: the
//     command is re-run against the real binary with `--dry-run` appended
//     (the CLI validates the whole command line and exits before any work);
//   * every `./build/…` binary a code block invokes exists in the build
//     tree (benches and examples are referenced but not executed — some
//     take minutes);
//   * every `--preset NAME` a code block mentions is defined in
//     CMakePresets.json;
//   * every backtick-cited metric name resolves to a registered name in
//     `dsm::metric` (src/dsm/telemetry/metrics.h), and — the reverse — every
//     registered name has a row in docs/OBSERVABILITY.md's catalogue and a
//     producer: some file under src/ or tools/ other than metrics.h uses its
//     constant.
//
// Usage: docs_check <repo_root> <optcm_binary> <build_dir>
// Exit status: 0 iff every check passed; failures are listed one per line.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

struct Checker {
  fs::path repo;
  std::string optcm;
  fs::path build;
  std::string presets_json;
  std::set<std::string> registered_metrics;  ///< names in dsm::metric
  /// metric::kName constant -> "metric_name", as registered.
  std::map<std::string, std::string> metric_constants;
  std::vector<std::string> failures;

  void fail(const fs::path& file, const std::string& what) {
    failures.push_back(file.string() + ": " + what);
  }

  // -- links -----------------------------------------------------------------

  void check_links(const fs::path& md, const std::string& text) {
    static const std::regex link_re(R"(\]\(([^)]+)\))");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), link_re);
         it != std::sregex_iterator(); ++it) {
      std::string target = (*it)[1].str();
      if (const auto sp = target.find(' '); sp != std::string::npos) {
        target = target.substr(0, sp);  // drop a "title" part
      }
      if (target.empty() || target[0] == '#') continue;
      if (target.rfind("http://", 0) == 0 || target.rfind("https://", 0) == 0 ||
          target.rfind("mailto:", 0) == 0) {
        continue;
      }
      if (const auto hash = target.find('#'); hash != std::string::npos) {
        target = target.substr(0, hash);  // file.md#section -> file.md
      }
      const fs::path resolved = md.parent_path() / target;
      if (!fs::exists(resolved)) {
        fail(md, "broken link \"" + target + "\" -> " + resolved.string());
      }
    }
  }

  // -- metric names ----------------------------------------------------------

  void load_registered_metrics() {
    const std::string header =
        read_file(repo / "src/dsm/telemetry/metrics.h");
    // inline constexpr char kName[] = "metric_name";
    static const std::regex name_re(
        R"(constexpr char (k\w+)\[\]\s*=\s*"([a-z0-9_]+)\")");
    for (auto it =
             std::sregex_iterator(header.begin(), header.end(), name_re);
         it != std::sregex_iterator(); ++it) {
      metric_constants[(*it)[1].str()] = (*it)[2].str();
      registered_metrics.insert((*it)[2].str());
    }
  }

  /// Every registered name has a producer: its constant appears in some
  /// file under src/ or tools/ (the CLI fills the checker's metric) other
  /// than metrics.h, so a catalogue row cannot outlive the code that fills
  /// it.
  void check_metrics_produced() {
    const fs::path header = repo / "src/dsm/telemetry/metrics.h";
    std::set<std::string> identifiers;
    for (const char* dir : {"src", "tools"}) {
      for (const auto& entry : fs::recursive_directory_iterator(repo / dir)) {
        if (!entry.is_regular_file() || entry.path() == header) continue;
        std::string word;
        for (const char ch : read_file(entry.path()) + '\n') {
          if (std::isalnum(static_cast<unsigned char>(ch)) || ch == '_') {
            word += ch;
          } else if (!word.empty()) {
            identifiers.insert(word);
            word.clear();
          }
        }
      }
    }
    for (const auto& [constant, name] : metric_constants) {
      if (identifiers.count(constant) == 0) {
        fail(header, "metric \"" + name + "\" (" + constant +
                         ") is registered but nothing under src/ or tools/ "
                         "produces it");
      }
    }
  }

  /// A backticked snake_case token is treated as a metric citation when it
  /// carries one of the registry's naming suffixes (the conventions in
  /// docs/OBSERVABILITY.md "Adding a metric"): `_total` counters,
  /// `_per_*` ratio summaries, and the registered gauge/summary names
  /// themselves.  Citing a name the registry does not know fails the doc.
  void check_metric_citations(const fs::path& md, const std::string& text) {
    static const std::regex tick_re(R"(`([a-z][a-z0-9_]*)`)");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), tick_re);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      if (registered_metrics.count(name) != 0) continue;
      const bool metric_like =
          name.ends_with("_total") || name.find("_per_") != std::string::npos;
      if (metric_like) {
        fail(md, "cites metric \"" + name +
                     "\" which is not registered in dsm::metric "
                     "(src/dsm/telemetry/metrics.h)");
      }
    }
  }

  /// The reverse direction: every registered name must have a row in the
  /// catalogue, so a new metric cannot land undocumented.
  void check_catalogue_complete() {
    const fs::path catalogue = repo / "docs/OBSERVABILITY.md";
    const std::string text = read_file(catalogue);
    for (const std::string& name : registered_metrics) {
      if (text.find("`" + name + "`") == std::string::npos) {
        fail(catalogue, "metric \"" + name +
                            "\" is registered in dsm::metric but missing "
                            "from the catalogue table");
      }
    }
  }

  // -- fenced code-block commands --------------------------------------------

  void check_command(const fs::path& md, const std::string& raw) {
    const std::string cmd = trim(raw);
    if (cmd.empty()) return;

    if (cmd.rfind("./build/tools/optcm", 0) == 0 || cmd.rfind("optcm ", 0) == 0) {
      const auto sp = cmd.find(' ');
      const std::string args = sp == std::string::npos ? "" : cmd.substr(sp);
      // A nonzero exit means an unknown command or flag, a flag the
      // command does not take, or a bad value.
      const std::string full = optcm + args + " --dry-run > /dev/null 2>&1";
      if (std::system(full.c_str()) != 0) {
        fail(md, "doc command rejected by the CLI: " + cmd);
      }
      return;
    }

    if (cmd.rfind("./build/", 0) == 0) {
      const std::string binary = cmd.substr(0, cmd.find(' '));
      const fs::path in_build = build / binary.substr(8);  // after "./build/"
      if (!fs::exists(in_build)) {
        fail(md, "doc references missing binary " + binary + " (looked at " +
                     in_build.string() + ")");
      }
      return;
    }

    // cmake/ctest lines: only the preset names are checkable without a
    // (very slow) real configure, and a typo there is the likely doc rot.
    static const std::regex preset_re(R"(--preset[= ]+([A-Za-z0-9_-]+))");
    for (auto it = std::sregex_iterator(cmd.begin(), cmd.end(), preset_re);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      if (presets_json.find("\"name\": \"" + name + "\"") == std::string::npos &&
          presets_json.find("\"name\":\"" + name + "\"") == std::string::npos) {
        fail(md, "unknown CMake preset \"" + name + "\" in: " + cmd);
      }
    }
  }

  void check_code_blocks(const fs::path& md, const std::string& text) {
    bool in_fence = false;
    std::string pending;  // accumulates backslash-continued lines
    for (const std::string& line : split_lines(text)) {
      if (trim(line).rfind("```", 0) == 0) {
        in_fence = !in_fence;
        pending.clear();
        continue;
      }
      if (!in_fence) continue;

      std::string body = line;
      if (const auto hash = body.find(" #"); hash != std::string::npos) {
        body = body.substr(0, hash);  // trailing comment
      }
      body = trim(body);
      if (body.rfind("$ ", 0) == 0) body = body.substr(2);

      if (!body.empty() && body.back() == '\\') {
        pending += body.substr(0, body.size() - 1) + " ";
        continue;
      }
      body = pending + body;
      pending.clear();

      // A line may chain several commands; validate each.
      std::size_t start = 0;
      while (start <= body.size()) {
        const auto amp = body.find("&&", start);
        const std::string part = amp == std::string::npos
                                     ? body.substr(start)
                                     : body.substr(start, amp - start);
        check_command(md, part);
        if (amp == std::string::npos) break;
        start = amp + 2;
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: %s <repo_root> <optcm_binary> <build_dir>\n",
                 argv[0]);
    return 2;
  }
  Checker c;
  c.repo = argv[1];
  c.optcm = argv[2];
  c.build = argv[3];
  c.presets_json = read_file(c.repo / "CMakePresets.json");
  if (c.presets_json.empty()) {
    std::fprintf(stderr, "docs_check: cannot read CMakePresets.json under %s\n",
                 argv[1]);
    return 2;
  }

  std::vector<fs::path> md_files;
  for (const auto& entry : fs::directory_iterator(c.repo)) {
    if (entry.is_regular_file() && entry.path().extension() == ".md") {
      md_files.push_back(entry.path());
    }
  }
  for (const auto& entry : fs::directory_iterator(c.repo / "docs")) {
    if (entry.is_regular_file() && entry.path().extension() == ".md") {
      md_files.push_back(entry.path());
    }
  }

  c.load_registered_metrics();
  if (c.registered_metrics.empty()) {
    std::fprintf(stderr,
                 "docs_check: no metric names found in "
                 "src/dsm/telemetry/metrics.h under %s\n",
                 argv[1]);
    return 2;
  }

  std::size_t checked = 0;
  for (const fs::path& md : md_files) {
    const std::string text = read_file(md);
    c.check_links(md, text);
    c.check_code_blocks(md, text);
    c.check_metric_citations(md, text);
    ++checked;
  }
  c.check_catalogue_complete();
  c.check_metrics_produced();

  for (const std::string& f : c.failures) {
    std::fprintf(stderr, "FAIL %s\n", f.c_str());
  }
  std::printf("docs_check: %zu markdown files, %zu failures\n", checked,
              c.failures.size());
  return c.failures.empty() ? 0 : 1;
}
