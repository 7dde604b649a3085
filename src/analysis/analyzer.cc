#include "src/analysis/analyzer.h"

#include <algorithm>
#include <chrono>
#include <string_view>

#include "src/analysis/passes.h"
#include "src/analysis/sema/functions.h"
#include "src/analysis/sema/passes.h"

namespace firehose {
namespace analysis {

std::string FormatFinding(const Finding& finding) {
  return finding.path + ":" + std::to_string(finding.line) + ": [" +
         finding.check + "] " + finding.message;
}

const std::vector<RegisteredPass>& PassRegistry() {
  static const std::vector<RegisteredPass> kPasses = {
      {{"layering",
        "cross-module include edge not allowed by the tools/layers.txt DAG"},
       CheckLayering, false},
      {{"include-cycle",
        "files that include each other, possibly transitively"},
       CheckIncludeCycles, false},
      {{"unused-include",
        "internal include none of whose declared names the file references"},
       CheckUnusedIncludes, false},
      {{"unchecked-error",
        "silently discarded [[nodiscard]] bool/Status result from a "
        "src/io, src/dur or src/runtime API"},
       CheckUncheckedErrors, false},
      {{"banned-nondeterminism",
        "raw entropy or wall-clock source outside src/util/random"},
       CheckBannedNondeterminism, false},
      {{"unordered-iteration",
        "range-for over an unordered container feeding an output path"},
       CheckUnorderedIteration, false},
      {{"include-guard", "missing or malformed #ifndef include guard"},
       CheckIncludeGuards, false},
      {{"raw-new-delete", "raw new/delete instead of owning containers"},
       CheckRawNewDelete, false},
      {{"obs-seam", "direct time/IO in src/obs instead of obs::Clock"},
       CheckObsSeam, false},
      {{"dur-seam", "file mutation outside src/io and src/dur"},
       CheckDurSeam, false},
      {{"view-invalidation",
        "SoA ring view (PostBin::LaneSpan) read after a mutating call "
        "invalidated it"},
       sema::CheckViewInvalidation, true},
      {{"lock-discipline",
        "FIREHOSE_GUARDED_BY/FIREHOSE_REQUIRES violation: guarded state "
        "touched without the mutex held"},
       sema::CheckLockDiscipline, true},
      {{"atomic-ordering",
        "raw memory_order_relaxed outside allowlisted seams, or "
        "seq_cst-default operation on an atomic"},
       sema::CheckAtomicOrdering, true},
      {{"blocking-in-hot-path",
        "IO or sleep call reachable from the per-post Offer decide path"},
       sema::CheckBlockingInHotPath, true},
      {{"thread-confinement",
        "FIREHOSE_THREAD_OWNED/PRODUCER_ONLY/CONSUMER_ONLY state touched "
        "from a function reachable on the wrong FIREHOSE_RUNS_ON thread"},
       sema::CheckThreadConfinement, true},
      {{"untrusted-input",
        "tainted bytes from a FIREHOSE_TAINT_SOURCE or frame payload used "
        "as an allocation size, resize argument or index without a bound "
        "check"},
       sema::CheckUntrustedInput, true},
      {{"ordering-discipline",
        "condvar wait outside a predicate loop, or a decide-path call "
        "preceding the WAL append in the same function"},
       sema::CheckOrderingDiscipline, true},
  };
  return kPasses;
}

const std::vector<CheckInfo>& AllChecks() {
  static const std::vector<CheckInfo> kChecks = [] {
    std::vector<CheckInfo> checks;
    for (const RegisteredPass& pass : PassRegistry()) {
      checks.push_back(pass.check);
    }
    return checks;
  }();
  return kChecks;
}

std::map<int, std::set<std::string>> CollectSuppressions(
    const std::vector<Token>& tokens) {
  std::map<int, std::set<std::string>> out;
  static const std::string kTag = "firehose-lint:";
  for (const Token& token : tokens) {
    if (token.kind != TokenKind::kComment) continue;
    const std::string& text = token.text;
    size_t pos = 0;
    while ((pos = text.find(kTag, pos)) != std::string::npos) {
      // Line of the directive inside a multi-line block comment.
      const int line =
          token.line +
          static_cast<int>(std::count(text.begin(), text.begin() + pos, '\n'));
      size_t p = pos + kTag.size();
      while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
      if (text.compare(p, 6, "allow(") == 0) {
        const size_t name_begin = p + 6;
        const size_t name_end = text.find(')', name_begin);
        if (name_end != std::string::npos && name_end > name_begin) {
          const std::string check = text.substr(name_begin, name_end - name_begin);
          // A directive covers its own line and the next one, so it works
          // both as a trailing comment and on the line above the code.
          out[line].insert(check);
          out[line + 1].insert(check);
        }
      }
      pos = p;
    }
  }
  return out;
}

AnalysisResult Analyze(const std::vector<SourceFile>& files,
                       const AnalysisOptions& options) {
  AnalysisResult result;
  for (const std::string& check : options.checks) {
    const bool known =
        std::any_of(AllChecks().begin(), AllChecks().end(),
                    [&check](const CheckInfo& info) { return info.name == check; });
    if (!known) {
      result.error = "unknown check '" + check + "'";
      return result;
    }
  }

  LayerConfig layers;
  bool have_layers = false;
  if (!options.layers_text.empty()) {
    if (!ParseLayerConfig(options.layers_text, &layers, &result.error)) {
      return result;
    }
    have_layers = true;
  }

  const IncludeGraph graph = BuildIncludeGraph(files);
  AnalysisContext context;
  context.graph = &graph;
  context.layers = have_layers ? &layers : nullptr;

  const auto enabled = [&options](std::string_view name) {
    return options.checks.empty() ||
           options.checks.count(std::string(name)) > 0;
  };

  // The semantic model is only built when a pass that reads it runs.
  bool needs_sema = false;
  for (const RegisteredPass& pass : PassRegistry()) {
    if (pass.needs_sema && enabled(pass.check.name)) needs_sema = true;
  }
  sema::SemaModel model;
  if (needs_sema) {
    model = sema::BuildSemaModel(graph);
    context.sema = &model;
  }

  std::vector<Finding> findings;
  for (const RegisteredPass& pass : PassRegistry()) {
    if (!enabled(pass.check.name)) continue;
    const auto start = std::chrono::steady_clock::now();
    pass.run(context, &findings);
    const auto stop = std::chrono::steady_clock::now();
    result.pass_ms.emplace_back(
        pass.check.name,
        std::chrono::duration<double, std::milli>(stop - start).count());
  }

  // Apply `firehose-lint: allow(...)` suppressions, computed lazily per
  // file the first time one of its findings is examined.
  std::map<std::string, std::map<int, std::set<std::string>>> suppressions;
  findings.erase(
      std::remove_if(
          findings.begin(), findings.end(),
          [&](const Finding& finding) {
            auto it = suppressions.find(finding.path);
            if (it == suppressions.end()) {
              const int index = graph.Find(finding.path);
              it = suppressions
                       .emplace(finding.path,
                                index < 0 ? std::map<int, std::set<std::string>>{}
                                          : CollectSuppressions(
                                                graph.files[index].tokens))
                       .first;
            }
            auto line_it = it->second.find(finding.line);
            return line_it != it->second.end() &&
                   line_it->second.count(finding.check) > 0;
          }),
      findings.end());

  // Collapse findings carrying the same (check, path, token) — one
  // violation reachable via several call chains — keeping the shortest
  // message (shortest chain; ties to the smallest line).
  {
    std::map<std::string, size_t> best;
    std::vector<Finding> deduped;
    deduped.reserve(findings.size());
    for (Finding& finding : findings) {
      if (finding.token.empty()) {
        deduped.push_back(std::move(finding));
        continue;
      }
      const std::string key =
          finding.check + "\t" + finding.path + "\t" + finding.token;
      const auto [it, inserted] = best.emplace(key, deduped.size());
      if (inserted) {
        deduped.push_back(std::move(finding));
        continue;
      }
      Finding& kept = deduped[it->second];
      if (finding.message.size() < kept.message.size() ||
          (finding.message.size() == kept.message.size() &&
           finding.line < kept.line)) {
        kept = std::move(finding);
      }
    }
    findings = std::move(deduped);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.check, a.message) <
                     std::tie(b.path, b.line, b.check, b.message);
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.path == b.path && a.line == b.line &&
                                      a.check == b.check &&
                                      a.message == b.message;
                             }),
                 findings.end());

  result.ok = true;
  result.findings = std::move(findings);
  result.file_count = files.size();
  return result;
}

}  // namespace analysis
}  // namespace firehose
