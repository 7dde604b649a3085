#ifndef FIREHOSE_ANALYSIS_ANALYZER_H_
#define FIREHOSE_ANALYSIS_ANALYZER_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/include_graph.h"

namespace firehose {
namespace analysis {

/// One diagnostic. `check` is the stable pass name used by suppression
/// comments (`firehose-lint: allow(<check>)`) and `--check` filters.
struct Finding {
  std::string path;
  int line = 0;
  std::string check;
  std::string message;
  /// Optional dedupe key. Findings with the same (check, path, token)
  /// collapse to one — the one with the shortest message (shortest call
  /// chain) — so a violation reachable via several chains is reported
  /// once. Empty disables collapsing.
  std::string token;
};

/// `path:line: [check] message` — the human output format, shared with
/// the old firehose_lint so editors keep parsing it.
std::string FormatFinding(const Finding& finding);

/// A registered pass. Every pass emits findings under exactly one check
/// name, so enabling/disabling and suppressing stay one-to-one.
struct CheckInfo {
  std::string name;
  std::string description;
};

namespace sema {
struct SemaModel;
}  // namespace sema

/// Everything a pass may look at. Passes are pure: context in, findings
/// out, no IO — which is what lets the unit tests drive them on
/// synthetic in-memory file sets.
struct AnalysisContext {
  const IncludeGraph* graph = nullptr;
  /// Null disables the layering pass.
  const LayerConfig* layers = nullptr;
  /// Semantic model (functions, types, annotations). Built only when a
  /// sema pass is enabled; null otherwise — sema passes no-op on null.
  const sema::SemaModel* sema = nullptr;
};

using PassFn = void (*)(const AnalysisContext&, std::vector<Finding>*);

struct RegisteredPass {
  CheckInfo check;
  PassFn run = nullptr;
  /// True when the pass reads context.sema; Analyze builds the model on
  /// demand when any such pass is enabled.
  bool needs_sema = false;
};

/// The pass registry; execution order is registration order: the graph
/// passes (layering, include-cycle, unused-include, unchecked-error),
/// the ported firehose_lint token checks, then the semantic passes
/// (view-invalidation, lock-discipline, atomic-ordering,
/// blocking-in-hot-path, thread-confinement, untrusted-input,
/// ordering-discipline).
const std::vector<RegisteredPass>& PassRegistry();

/// CheckInfo of every registered pass, in execution order.
const std::vector<CheckInfo>& AllChecks();

struct AnalysisOptions {
  /// Contents of tools/layers.txt. Empty disables the layering pass.
  std::string layers_text;
  /// Check names to run; empty means all. Unknown names are an error.
  std::set<std::string> checks;
};

struct AnalysisResult {
  /// False on a configuration error (bad layers file or unknown check
  /// name) — findings are then meaningless.
  bool ok = false;
  std::string error;
  /// Sorted by (path, line, check); `firehose-lint: allow(...)`
  /// suppressions already applied.
  std::vector<Finding> findings;
  size_t file_count = 0;
  /// (pass name, milliseconds) in execution order, for --stats.
  std::vector<std::pair<std::string, double>> pass_ms;
};

/// Lexes the files, builds the include graph and runs every selected
/// pass. Paths must be repo-relative ('/'-separated) for module
/// assignment and include resolution to work.
AnalysisResult Analyze(const std::vector<SourceFile>& files,
                       const AnalysisOptions& options);

/// `firehose-lint: allow(<check>)` comment directives per file, keyed by
/// line; a directive on line N suppresses its check on lines N and N+1.
std::map<int, std::set<std::string>> CollectSuppressions(
    const std::vector<Token>& tokens);

}  // namespace analysis
}  // namespace firehose

#endif  // FIREHOSE_ANALYSIS_ANALYZER_H_
