// firehose_analyze: the repo's static-analysis driver.
//
// Token-aware successor to the old regex firehose_lint. Lexes every
// source file (comment/string/raw-string aware), builds the include
// graph, and runs the registered passes: layering enforcement against
// tools/layers.txt, include-cycle detection, IWYU-lite unused includes,
// unchecked-error analysis of [[nodiscard]] APIs, the ported hygiene
// checks (banned-nondeterminism, unordered-iteration, include-guard,
// raw-new-delete, obs-seam, dur-seam), and the semantic passes built on
// the sema layer (view-invalidation, lock-discipline, atomic-ordering,
// blocking-in-hot-path, thread-confinement, untrusted-input,
// ordering-discipline). Every run analyzes every file from scratch.
//
// Usage:
//   firehose_analyze [options] <file-or-dir>...
//     --root=DIR        repo root; paths are reported relative to it (default .)
//     --layers=FILE     layer DAG (default <root>/tools/layers.txt)
//     --check=a,b       run only the named checks
//     --list-checks     print registered checks and exit
//     --stats           print file count, wall time and per-pass timing to stderr
//
// Directories named `fixtures` are skipped: they hold deliberately
// broken inputs for the analyzer's own tests.
//
// Findings print as `path:line: [check] message`. Exit status: 0 when
// every finding is suppressed, 1 otherwise, 2 on usage/configuration
// errors. Suppress a single line with `// firehose-lint: allow(<check>)`
// on that line or the line above.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/analyzer.h"

namespace fs = std::filesystem;
using firehose::analysis::AnalysisOptions;
using firehose::analysis::Finding;

namespace {

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

void CollectFiles(const fs::path& path, std::vector<fs::path>* out) {
  if (fs::is_directory(path)) {
    for (fs::recursive_directory_iterator it(path), end; it != end; ++it) {
      const std::string name = it->path().filename().string();
      if (it->is_directory() &&
          (name == "build" || name == "fixtures" ||
           (!name.empty() && name[0] == '.'))) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && IsSourceFile(it->path())) {
        out->push_back(it->path());
      }
    }
  } else {
    out->push_back(path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string layers_path;
  bool stats = false;
  AnalysisOptions options;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](std::string_view flag) {
      return arg.substr(flag.size());
    };
    if (arg.rfind("--root=", 0) == 0) {
      root = value("--root=");
    } else if (arg.rfind("--layers=", 0) == 0) {
      layers_path = value("--layers=");
    } else if (arg.rfind("--check=", 0) == 0) {
      std::istringstream list(value("--check="));
      std::string name;
      while (std::getline(list, name, ',')) {
        if (!name.empty()) options.checks.insert(name);
      }
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--list-checks") {
      for (const auto& check : firehose::analysis::AllChecks()) {
        std::cout << check.name << "\t" << check.description << "\n";
      }
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "firehose_analyze: unknown option " << arg << "\n";
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::cerr << "usage: firehose_analyze [--root=DIR] [--layers=FILE] "
                 "[--check=a,b] [--list-checks] [--stats] "
                 "<file-or-dir>...\n";
    return 2;
  }

  const fs::path root_dir(root);
  if (layers_path.empty()) {
    layers_path = (root_dir / "tools" / "layers.txt").string();
    // The default is best-effort: analyzing a tree without a layers file
    // just skips the layering pass.
    if (!fs::exists(layers_path)) layers_path.clear();
  }

  if (!layers_path.empty() &&
      !ReadFile(layers_path, &options.layers_text)) {
    std::cerr << "firehose_analyze: cannot read layers file " << layers_path
              << "\n";
    return 2;
  }

  std::vector<fs::path> paths;
  for (const std::string& input : inputs) {
    fs::path p(input);
    if (p.is_relative() && !fs::exists(p) && fs::exists(root_dir / p)) {
      p = root_dir / p;  // operands may be given relative to --root
    }
    if (!fs::exists(p)) {
      std::cerr << "firehose_analyze: no such file or directory: " << input
                << "\n";
      return 2;
    }
    CollectFiles(p, &paths);
  }

  std::vector<firehose::analysis::SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& path : paths) {
    firehose::analysis::SourceFile file;
    std::error_code ec;
    const fs::path rel = fs::relative(path, root_dir, ec);
    file.path = (ec || rel.empty() ? path : rel).generic_string();
    if (!ReadFile(path, &file.text)) {
      std::cerr << "firehose_analyze: cannot read " << path << "\n";
      return 2;
    }
    files.push_back(std::move(file));
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const firehose::analysis::AnalysisResult result =
      firehose::analysis::Analyze(files, options);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  if (!result.ok) {
    std::cerr << "firehose_analyze: " << result.error << "\n";
    return 2;
  }

  if (stats) {
    std::cerr << "firehose_analyze stats:\n"
              << "  files:        " << result.file_count << "\n"
              << "  wall:         " << wall_ms << " ms\n";
    for (const auto& [pass, ms] : result.pass_ms) {
      std::cerr << "  pass " << pass << ": " << ms << " ms\n";
    }
  }

  for (const Finding& finding : result.findings) {
    std::cout << firehose::analysis::FormatFinding(finding) << "\n";
  }
  std::cout << "firehose_analyze: " << result.file_count << " files, "
            << result.findings.size() << " violations\n";
  return result.findings.empty() ? 0 : 1;
}
