#include "src/analysis/passes.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>

namespace firehose {
namespace analysis {
namespace {

/// Comment-free view of a file's tokens. Passes reason over code; the
/// analyzer applies comment suppressions afterwards.
std::vector<const Token*> CodeTokens(const FileNode& node) {
  std::vector<const Token*> out;
  out.reserve(node.tokens.size());
  for (const Token& token : node.tokens) {
    if (token.kind != TokenKind::kComment) out.push_back(&token);
  }
  return out;
}

using Code = std::vector<const Token*>;

bool InSrc(const FileNode& node) { return node.path.rfind("src/", 0) == 0; }

bool IsHeader(const FileNode& node) {
  return node.path.size() > 2 &&
         (node.path.compare(node.path.size() - 2, 2, ".h") == 0 ||
          (node.path.size() > 4 &&
           node.path.compare(node.path.size() - 4, 4, ".hpp") == 0));
}

bool IsIdentAt(const Code& code, size_t i) {
  return i < code.size() && code[i]->kind == TokenKind::kIdentifier;
}

bool IsPunctAt(const Code& code, size_t i, std::string_view spelling) {
  return i < code.size() && IsPunct(*code[i], spelling);
}

/// Index of the punct matching the opener at `i`, or code.size().
size_t MatchForward(const Code& code, size_t i, std::string_view open,
                    std::string_view close) {
  int depth = 0;
  for (size_t j = i; j < code.size(); ++j) {
    if (IsPunct(*code[j], open)) ++depth;
    if (IsPunct(*code[j], close) && --depth == 0) return j;
  }
  return code.size();
}

void Add(std::vector<Finding>* findings, const FileNode& node, int line,
         std::string check, std::string message) {
  findings->push_back(
      {node.path, line, std::move(check), std::move(message), ""});
}

std::string JoinSorted(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

// --- layering ----------------------------------------------------------------

void CheckLayering(const AnalysisContext& context,
                   std::vector<Finding>* findings) {
  if (context.layers == nullptr) return;
  const LayerConfig& layers = *context.layers;
  std::set<std::string> unknown_reported;
  for (const FileNode& node : context.graph->files) {
    auto rule_it = layers.rules.find(node.module);
    if (rule_it == layers.rules.end()) {
      if (unknown_reported.insert(node.module).second) {
        Add(findings, node, 1, "layering",
            "module '" + node.module + "' (" + node.path +
                ") has no entry in tools/layers.txt; declare its place "
                "in the layer DAG");
      }
      continue;
    }
    const LayerConfig::Rule& rule = rule_it->second;
    if (rule.any) continue;
    for (const IncludeRef& ref : node.includes) {
      if (ref.resolved < 0) continue;
      const std::string& to = context.graph->files[ref.resolved].module;
      if (to == node.module || rule.allowed.count(to) > 0) continue;
      Add(findings, node, ref.line, "layering",
          "illegal layer edge " + node.module + " -> " + to + ": includes \"" +
              ref.target + "\" but tools/layers.txt allows module '" +
              node.module + "' to depend only on: " +
              (rule.allowed.empty() ? std::string("nothing")
                                    : JoinSorted(rule.allowed)));
    }
  }
}

// --- include-cycle -----------------------------------------------------------

void CheckIncludeCycles(const AnalysisContext& context,
                        std::vector<Finding>* findings) {
  const IncludeGraph& graph = *context.graph;
  const size_t n = graph.files.size();
  // 0 = unvisited, 1 = on the current DFS path, 2 = done.
  std::vector<int> color(n, 0);
  std::set<std::string> reported;

  // Iterative DFS; the stack frame remembers which include comes next.
  struct Frame {
    int node;
    size_t next_include = 0;
  };
  for (size_t start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    std::vector<Frame> stack{{static_cast<int>(start)}};
    color[start] = 1;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const FileNode& node = graph.files[frame.node];
      if (frame.next_include >= node.includes.size()) {
        color[frame.node] = 2;
        stack.pop_back();
        continue;
      }
      const IncludeRef& ref = node.includes[frame.next_include++];
      if (ref.resolved < 0) continue;
      if (color[ref.resolved] == 0) {
        color[ref.resolved] = 1;
        stack.push_back({ref.resolved});
        continue;
      }
      if (color[ref.resolved] != 1) continue;
      // Back edge: the cycle is the stack suffix from the target node.
      std::vector<std::string> cycle;
      size_t from = 0;
      while (from < stack.size() && stack[from].node != ref.resolved) ++from;
      for (size_t i = from; i < stack.size(); ++i) {
        cycle.push_back(graph.files[stack[i].node].path);
      }
      // Canonical key (rotation starting at the smallest path) so each
      // cycle is reported once however it is entered.
      const size_t smallest = static_cast<size_t>(
          std::min_element(cycle.begin(), cycle.end()) - cycle.begin());
      std::string key;
      std::string shown;
      for (size_t i = 0; i < cycle.size(); ++i) {
        key += cycle[(smallest + i) % cycle.size()] + "|";
        shown += cycle[i] + " -> ";
      }
      shown += cycle.front();
      if (reported.insert(key).second) {
        Add(findings, node, ref.line, "include-cycle",
            "include cycle: " + shown +
                "; move the shared declarations into a lower layer");
      }
    }
  }
}

// --- unused-include ----------------------------------------------------------

namespace {

/// C++ keywords and ubiquitous member names. Excluded from a header's
/// provided-name set: "provides `size`" would make every includer look
/// like a user of the header.
const std::set<std::string>& NoiseNames() {
  static const std::set<std::string> kNoise = {
      // keywords that precede '(' or '='
      "if", "for", "while", "switch", "return", "sizeof", "alignof",
      "alignas", "decltype", "static_assert", "catch", "throw", "new",
      "delete", "case", "do", "else", "goto", "operator", "noexcept",
      "typeid", "this", "template", "typename", "static_cast",
      "dynamic_cast", "const_cast", "reinterpret_cast", "defined",
      "explicit", "virtual", "override", "final", "const", "constexpr",
      "static", "inline", "auto", "void", "bool", "char", "int", "long",
      "short", "unsigned", "signed", "float", "double", "true", "false",
      "nullptr", "default", "public", "private", "protected", "namespace",
      "assert",
      // std vocabulary and container members any file mentions
      "std", "string", "string_view", "vector", "size_t", "uint8_t",
      "uint16_t", "uint32_t", "uint64_t", "int8_t", "int16_t", "int32_t",
      "int64_t", "size", "empty", "clear", "begin", "end", "push_back",
      "emplace_back", "reserve", "resize", "data", "c_str", "first",
      "second", "get", "reset", "release", "count", "find", "insert",
      "erase", "at", "back", "front", "min", "max", "move", "swap",
      "make_unique", "make_shared", "emplace", "substr", "append",
  };
  return kNoise;
}

/// Names a header plausibly declares: classes/structs/enums/unions,
/// concepts, enumerators, using-aliases, typedefs, #defines, functions
/// (any identifier directly before '('), and initialized names (any
/// identifier directly before '='). Deliberately an over-approximation —
/// extra provided names can only hide an unused include, never invent
/// one.
std::set<std::string> ProvidedNames(const FileNode& node) {
  std::set<std::string> names;
  const Code code = CodeTokens(node);
  for (size_t i = 0; i < code.size(); ++i) {
    const Token& token = *code[i];
    if (IsPunct(token, "#") && token.at_line_start && i + 2 < code.size() &&
        IsIdent(*code[i + 1], "define") && IsIdentAt(code, i + 2)) {
      names.insert(code[i + 2]->text);
      continue;
    }
    if (token.kind != TokenKind::kIdentifier) continue;
    const std::string& text = token.text;

    if (text == "class" || text == "struct" || text == "union" ||
        text == "concept" || text == "enum") {
      size_t j = i + 1;
      if (text == "enum" && j < code.size() &&
          (IsIdent(*code[j], "class") || IsIdent(*code[j], "struct"))) {
        ++j;
      }
      while (IsPunctAt(code, j, "[") && IsPunctAt(code, j + 1, "[")) {
        j = MatchForward(code, j, "[", "]") + 1;  // skip [[attributes]]
        if (IsPunctAt(code, j, "]")) ++j;
      }
      if (IsIdentAt(code, j)) names.insert(code[j]->text);
      if (text == "enum") {
        while (j < code.size() && !IsPunct(*code[j], "{") &&
               !IsPunct(*code[j], ";")) {
          ++j;
        }
        if (IsPunctAt(code, j, "{")) {
          const size_t close = MatchForward(code, j, "{", "}");
          int depth = 0;
          for (size_t k = j; k < close; ++k) {
            if (IsPunct(*code[k], "{")) ++depth;
            if (IsPunct(*code[k], "}")) --depth;
            if (depth == 1 && IsIdentAt(code, k) &&
                (IsPunctAt(code, k + 1, ",") || IsPunctAt(code, k + 1, "}") ||
                 IsPunctAt(code, k + 1, "="))) {
              names.insert(code[k]->text);
            }
          }
        }
      }
      continue;
    }
    if (text == "using") {
      if (IsIdentAt(code, i + 1) && code[i + 1]->text == "namespace") continue;
      std::string last;
      size_t j = i + 1;
      while (j < code.size() && !IsPunct(*code[j], ";") &&
             !IsPunct(*code[j], "=")) {
        if (IsIdentAt(code, j)) last = code[j]->text;
        ++j;
      }
      if (!last.empty()) names.insert(last);
      continue;
    }
    if (text == "typedef") {
      std::string last;
      size_t j = i + 1;
      while (j < code.size() && !IsPunct(*code[j], ";")) {
        if (IsIdentAt(code, j)) last = code[j]->text;
        ++j;
      }
      if (!last.empty()) names.insert(last);
      continue;
    }
    if (IsPunctAt(code, i + 1, "(") || IsPunctAt(code, i + 1, "=")) {
      names.insert(text);
    }
  }
  for (const std::string& noise : NoiseNames()) names.erase(noise);
  return names;
}

/// True when `file` is the implementation of `header` (src/x/y.cc for
/// src/x/y.h) — the primary include is always kept.
bool IsPrimaryHeader(const std::string& file, const std::string& header) {
  if (header.size() < 2 ||
      header.compare(header.size() - 2, 2, ".h") != 0) {
    return false;
  }
  const std::string stem = header.substr(0, header.size() - 2);
  return file == stem + ".cc" || file == stem + ".cpp";
}

}  // namespace

void CheckUnusedIncludes(const AnalysisContext& context,
                         std::vector<Finding>* findings) {
  const IncludeGraph& graph = *context.graph;
  std::map<int, std::set<std::string>> provided_cache;
  for (const FileNode& node : graph.files) {
    if (!InSrc(node) || node.module == "api") continue;
    std::set<std::string> used;
    for (const Token& token : node.tokens) {
      if (token.kind == TokenKind::kIdentifier) used.insert(token.text);
    }
    for (const IncludeRef& ref : node.includes) {
      if (ref.resolved < 0) continue;
      const FileNode& target = graph.files[ref.resolved];
      if (IsPrimaryHeader(node.path, target.path)) continue;
      auto cached = provided_cache.find(ref.resolved);
      if (cached == provided_cache.end()) {
        cached = provided_cache.emplace(ref.resolved, ProvidedNames(target))
                     .first;
      }
      const std::set<std::string>& provided = cached->second;
      const bool referenced =
          std::any_of(provided.begin(), provided.end(),
                      [&used](const std::string& name) {
                        return used.count(name) > 0;
                      });
      if (referenced) continue;
      Add(findings, node, ref.line, "unused-include",
          "unused include: nothing declared by \"" + ref.target +
              "\" is referenced in this file; drop the include (or "
              "annotate `firehose-lint: allow(unused-include)` if it is "
              "deliberately re-exported)");
    }
  }
}

// --- unchecked-error ---------------------------------------------------------

namespace {

struct MustCheckApi {
  std::string declared_in;
  std::string return_type;
};

/// Function names declared `[[nodiscard]]` with a bool/Status return in
/// a src/io, src/dur or src/runtime header. Name-based: the analyzer has
/// no type information, so a same-named void function elsewhere would be
/// flagged too — acceptable for a tree this size, and an explicit
/// `(void)` cast or allow-comment documents any intentional discard.
std::map<std::string, MustCheckApi> CollectMustCheck(
    const IncludeGraph& graph) {
  std::map<std::string, MustCheckApi> apis;
  for (const FileNode& node : graph.files) {
    if (!InSrc(node) || !IsHeader(node)) continue;
    if (node.module != "io" && node.module != "dur" &&
        node.module != "runtime") {
      continue;
    }
    const Code code = CodeTokens(node);
    for (size_t i = 0; i + 4 < code.size(); ++i) {
      if (!(IsPunct(*code[i], "[") && IsPunct(*code[i + 1], "[") &&
            IsIdent(*code[i + 2], "nodiscard") && IsPunct(*code[i + 3], "]") &&
            IsPunct(*code[i + 4], "]"))) {
        continue;
      }
      bool returns_boolish = false;
      for (size_t j = i + 5; j < code.size(); ++j) {
        const Token& token = *code[j];
        if (IsPunct(token, ";") || IsPunct(token, "{") ||
            IsPunct(token, "}")) {
          break;
        }
        if (IsIdent(token, "bool") || IsIdent(token, "Status")) {
          returns_boolish = true;
          continue;
        }
        if (token.kind == TokenKind::kIdentifier &&
            IsPunctAt(code, j + 1, "(")) {
          if (returns_boolish) {
            apis.emplace(token.text,
                         MustCheckApi{node.path,
                                      returns_boolish ? "bool" : "Status"});
          }
          break;
        }
      }
    }
  }
  return apis;
}

/// Walks left from the head of a call chain (`a.b->c::Fn` → before `a`)
/// so the token preceding the whole chain decides statement position.
ptrdiff_t ChainStartBefore(const Code& code, ptrdiff_t i) {
  ptrdiff_t j = i - 1;
  while (j >= 0) {
    const Token& p = *code[j];
    if (!(IsPunct(p, ".") || IsPunct(p, "->") || IsPunct(p, "::"))) break;
    --j;  // the primary expression before the access operator
    if (j >= 0 && code[j]->kind == TokenKind::kIdentifier) {
      --j;
      continue;
    }
    if (j >= 0 && (IsPunct(*code[j], ")") || IsPunct(*code[j], "]"))) {
      const bool paren = IsPunct(*code[j], ")");
      const std::string_view open = paren ? "(" : "[";
      const std::string_view close = paren ? ")" : "]";
      int depth = 0;
      while (j >= 0) {
        if (IsPunct(*code[j], close)) ++depth;
        if (IsPunct(*code[j], open) && --depth == 0) break;
        --j;
      }
      --j;  // before the opener
      if (j >= 0 && code[j]->kind == TokenKind::kIdentifier) --j;
      continue;
    }
    break;
  }
  return j;
}

/// True when the `:` at `colon` is a ternary's — i.e. a matching `?`
/// appears to its left in the same expression. Label colons (`case X:`,
/// `default:`, `public:`, goto labels) hit `;`/`{`/`}` or the file start
/// first, so a call after them really is a discarded statement.
bool IsTernaryColon(const Code& code, ptrdiff_t colon) {
  int depth = 0;    // reversed ()/[] nesting
  int pending = 0;  // nested `:` seen that still need their own `?`
  for (ptrdiff_t j = colon - 1; j >= 0; --j) {
    const Token& t = *code[j];
    if (IsPunct(t, ")") || IsPunct(t, "]")) ++depth;
    if (IsPunct(t, "(") || IsPunct(t, "[")) {
      if (depth == 0) return false;  // left the expression (e.g. range-for)
      --depth;
    }
    if (depth > 0) continue;
    if (IsPunct(t, "?")) {
      if (pending == 0) return true;
      --pending;
    } else if (IsPunct(t, ":")) {
      ++pending;  // a nested `a ? b : c` colon on the way out
    } else if (IsPunct(t, ";") || IsPunct(t, "{") || IsPunct(t, "}")) {
      return false;
    }
  }
  return false;
}

}  // namespace

void CheckUncheckedErrors(const AnalysisContext& context,
                          std::vector<Finding>* findings) {
  const IncludeGraph& graph = *context.graph;
  const std::map<std::string, MustCheckApi> apis = CollectMustCheck(graph);
  if (apis.empty()) return;
  for (const FileNode& node : graph.files) {
    if (!InSrc(node) && node.module != "tools") continue;
    const Code code = CodeTokens(node);
    for (size_t i = 0; i < code.size(); ++i) {
      if (code[i]->kind != TokenKind::kIdentifier ||
          !IsPunctAt(code, i + 1, "(")) {
        continue;
      }
      auto api = apis.find(code[i]->text);
      if (api == apis.end()) continue;
      const size_t close = MatchForward(code, i + 1, "(", ")");
      if (!IsPunctAt(code, close + 1, ";")) continue;  // result consumed
      const ptrdiff_t before =
          ChainStartBefore(code, static_cast<ptrdiff_t>(i));
      bool discarded = false;
      if (before < 0) {
        discarded = true;
      } else {
        const Token& p = *code[before];
        if (IsPunct(p, ";") || IsPunct(p, "{") || IsPunct(p, "}") ||
            IsIdent(p, "else") || IsIdent(p, "do")) {
          discarded = true;
        } else if (IsPunct(p, ":")) {
          // A ternary's `:` feeds the result somewhere; a label's doesn't.
          discarded = !IsTernaryColon(code, before);
        } else if (IsPunct(p, ")")) {
          // `(void)Fn(...)` is an explicit, documented discard; any
          // other `) Fn(...);` is a control-statement body dropping it.
          const bool void_cast = before >= 2 &&
                                 IsIdent(*code[before - 1], "void") &&
                                 IsPunct(*code[before - 2], "(");
          discarded = !void_cast;
        }
      }
      if (!discarded) continue;
      Add(findings, node, code[i]->line, "unchecked-error",
          "result of '" + code[i]->text + "' ([[nodiscard]] " +
              api->second.return_type + " from " + api->second.declared_in +
              ") is silently discarded; handle the failure or cast to "
              "(void) with a comment saying why it cannot fail");
    }
  }
}

// --- banned-nondeterminism ---------------------------------------------------

void CheckBannedNondeterminism(const AnalysisContext& context,
                               std::vector<Finding>* findings) {
  static const std::set<std::string> kBannedCalls = {
      "rand", "srand", "drand48", "rand48", "lrand48", "time",
      "gettimeofday"};
  for (const FileNode& node : context.graph->files) {
    if (!InSrc(node)) continue;
    // src/util/random wraps the one sanctioned entropy-free generator.
    if (node.path.find("util/random") != std::string::npos) continue;
    const Code code = CodeTokens(node);
    for (size_t i = 0; i < code.size(); ++i) {
      if (code[i]->kind != TokenKind::kIdentifier) continue;
      const std::string& text = code[i]->text;
      std::string token;
      if (kBannedCalls.count(text) > 0 && IsPunctAt(code, i + 1, "(")) {
        token = text;
      } else if (text == "random_device" && i >= 2 &&
                 IsPunct(*code[i - 1], "::") && IsIdent(*code[i - 2], "std")) {
        token = "std::random_device";
      } else if (text == "system_clock" && i >= 2 &&
                 IsPunct(*code[i - 1], "::") &&
                 IsIdent(*code[i - 2], "chrono")) {
        token = "std::chrono::system_clock";
      }
      if (token.empty()) continue;
      Add(findings, node, code[i]->line, "banned-nondeterminism",
          "'" + token +
              "' is nondeterministic; thread all randomness and "
              "wall-clock reads through firehose::Rng / WallTimer "
              "(src/util) so runs replay from a seed");
    }
  }
}

// --- unordered-iteration -----------------------------------------------------

namespace {

/// Names declared as std::unordered_map/set anywhere in src/. Collected
/// globally because members are declared in headers but iterated in the
/// matching .cc file.
std::set<std::string> CollectUnorderedNames(const IncludeGraph& graph) {
  std::set<std::string> names;
  for (const FileNode& node : graph.files) {
    if (!InSrc(node)) continue;
    const Code code = CodeTokens(node);
    for (size_t i = 0; i < code.size(); ++i) {
      if (!(IsIdent(*code[i], "unordered_map") ||
            IsIdent(*code[i], "unordered_set")) ||
          !IsPunctAt(code, i + 1, "<")) {
        continue;
      }
      // Walk the template argument list; abort on anything a simple
      // variable declaration would not contain.
      int depth = 0;
      size_t j = i + 1;
      for (; j < code.size(); ++j) {
        const Token& token = *code[j];
        if (token.kind != TokenKind::kPunct) continue;
        if (token.text == ";" || token.text == "(" || token.text == ")") {
          depth = -1;
          break;
        }
        if (token.text == "<") ++depth;
        if (token.text == "<<") depth += 2;
        if (token.text == ">") --depth;
        if (token.text == ">>") depth -= 2;
        if (depth <= 0) break;
      }
      if (depth != 0) continue;
      if (IsIdentAt(code, j + 1) &&
          (IsPunctAt(code, j + 2, ";") || IsPunctAt(code, j + 2, "=") ||
           IsPunctAt(code, j + 2, "{"))) {
        names.insert(code[j + 1]->text);
      }
    }
  }
  return names;
}

/// True when the loop body [begin, end) feeds an output or serialization
/// path (Put*/Save/Write*/push_back/printf/stream <<).
bool BodyWritesOutput(const Code& code, size_t begin, size_t end) {
  auto ends_with = [](const std::string& s, std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  for (size_t i = begin; i < end; ++i) {
    const Token& token = *code[i];
    if (token.kind == TokenKind::kIdentifier && i + 1 < end &&
        IsPunct(*code[i + 1], "(")) {
      const std::string& text = token.text;
      if (text.rfind("Put", 0) == 0 || text.rfind("Write", 0) == 0 ||
          text == "push_back" || text == "emplace_back" || text == "printf" ||
          text == "fprintf") {
        return true;
      }
      if (text == "Save" && i > begin && IsPunct(*code[i - 1], ".")) {
        return true;
      }
    }
    if (IsPunct(token, "<<") && i > begin &&
        code[i - 1]->kind == TokenKind::kIdentifier) {
      const std::string& lhs = code[i - 1]->text;
      if (lhs == "cout" || lhs == "cerr" || lhs == "out" || lhs == "os" ||
          lhs == "stream" || ends_with(lhs, "_out") || ends_with(lhs, "_os") ||
          ends_with(lhs, "_stream")) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

void CheckUnorderedIteration(const AnalysisContext& context,
                             std::vector<Finding>* findings) {
  const std::set<std::string> unordered = CollectUnorderedNames(*context.graph);
  if (unordered.empty()) return;
  for (const FileNode& node : context.graph->files) {
    if (!InSrc(node)) continue;
    const Code code = CodeTokens(node);
    for (size_t i = 0; i + 1 < code.size(); ++i) {
      if (!IsIdent(*code[i], "for") || !IsPunctAt(code, i + 1, "(")) continue;
      const size_t close = MatchForward(code, i + 1, "(", ")");
      if (close >= code.size()) continue;
      // Range-for over a bare identifier: `for (... : name)`.
      if (close < 2 || !IsPunct(*code[close - 2], ":") ||
          code[close - 1]->kind != TokenKind::kIdentifier) {
        continue;
      }
      const std::string& range = code[close - 1]->text;
      if (unordered.count(range) == 0) continue;
      size_t body_end;
      if (IsPunctAt(code, close + 1, "{")) {
        body_end = MatchForward(code, close + 1, "{", "}");
      } else {
        body_end = close + 1;
        while (body_end < code.size() && !IsPunct(*code[body_end], ";")) {
          ++body_end;
        }
      }
      if (!BodyWritesOutput(code, close + 1, body_end)) continue;
      Add(findings, node, code[i]->line, "unordered-iteration",
          "range-for over unordered container '" + range +
              "' feeds an output/serialization path; hash iteration order "
              "is nondeterministic — iterate sorted keys instead (or "
              "annotate `firehose-lint: allow(unordered-iteration)` if the "
              "result is re-sorted before it escapes)");
    }
  }
}

// --- include-guard -----------------------------------------------------------

void CheckIncludeGuards(const AnalysisContext& context,
                        std::vector<Finding>* findings) {
  for (const FileNode& node : context.graph->files) {
    if (!InSrc(node) || !IsHeader(node)) continue;
    const Code code = CodeTokens(node);

    // Directive positions: indices of line-start '#' tokens.
    std::vector<size_t> directives;
    for (size_t i = 0; i < code.size(); ++i) {
      if (IsPunct(*code[i], "#") && code[i]->at_line_start) {
        directives.push_back(i);
      }
    }

    bool pragma_once = false;
    for (size_t i : directives) {
      if (IsIdentAt(code, i + 1) && code[i + 1]->text == "pragma" &&
          IsIdentAt(code, i + 2) && code[i + 2]->text == "once") {
        pragma_once = true;
      }
    }
    if (pragma_once) {
      Add(findings, node, 1, "include-guard",
          "#pragma once is nonstandard; use an #ifndef/#define include "
          "guard");
      continue;
    }

    const bool guarded =
        directives.size() >= 2 && IsIdentAt(code, directives[0] + 1) &&
        code[directives[0] + 1]->text == "ifndef" &&
        IsIdentAt(code, directives[0] + 2) &&
        directives[1] == directives[0] + 3 &&
        IsIdentAt(code, directives[1] + 1) &&
        code[directives[1] + 1]->text == "define" &&
        IsIdentAt(code, directives[1] + 2) &&
        code[directives[0] + 2]->text == code[directives[1] + 2]->text;
    if (!guarded) {
      Add(findings, node, 1, "include-guard",
          "header must open with a matching #ifndef/#define include guard");
      continue;
    }

    const size_t last = directives.back();
    const bool closed = IsIdentAt(code, last + 1) &&
                        code[last + 1]->text == "endif" &&
                        last + 2 >= code.size();
    if (!closed) {
      Add(findings, node, 1, "include-guard",
          "header must close with #endif as its last directive");
    }
  }
}

// --- raw-new-delete ----------------------------------------------------------

void CheckRawNewDelete(const AnalysisContext& context,
                       std::vector<Finding>* findings) {
  for (const FileNode& node : context.graph->files) {
    if (!InSrc(node)) continue;
    const Code code = CodeTokens(node);
    for (size_t i = 0; i < code.size(); ++i) {
      if (IsIdent(*code[i], "new")) {
        Add(findings, node, code[i]->line, "raw-new-delete",
            "raw `new`; use std::make_unique/containers so ownership is "
            "explicit");
      } else if (IsIdent(*code[i], "delete")) {
        if (i > 0 && IsPunct(*code[i - 1], "=")) continue;  // `= delete`
        Add(findings, node, code[i]->line, "raw-new-delete",
            "raw `delete`; use std::unique_ptr/containers so ownership is "
            "explicit");
      }
    }
  }
}

// --- obs-seam ----------------------------------------------------------------

void CheckObsSeam(const AnalysisContext& context,
                  std::vector<Finding>* findings) {
  static const std::set<std::string> kBannedCalls = {
      "fopen", "fread",  "fwrite", "fclose",  "fscanf",
      "fgets", "fputs",  "getline", "printf", "fprintf",
      "vprintf"};
  static const std::set<std::string> kBannedStreams = {"ofstream", "ifstream",
                                                       "fstream"};
  static const std::set<std::string> kBannedStd = {"cout", "cerr", "clog"};
  for (const FileNode& node : context.graph->files) {
    if (node.module != "obs") continue;
    // obs/clock.* is the one sanctioned wrapper around the real clock,
    // and obs/log.cc owns the default stderr sink (one fwrite per line;
    // everything else routes through the injectable LogSinkFn).
    if (node.path.find("obs/clock.") != std::string::npos) continue;
    if (node.path == "src/obs/log.cc") continue;
    const Code code = CodeTokens(node);
    for (size_t i = 0; i < code.size(); ++i) {
      if (code[i]->kind != TokenKind::kIdentifier) continue;
      const std::string& text = code[i]->text;
      std::string token;
      if (text == "chrono" && i >= 2 && IsPunct(*code[i - 1], "::") &&
          IsIdent(*code[i - 2], "std")) {
        token = "std::chrono";
      } else if (kBannedCalls.count(text) > 0 && IsPunctAt(code, i + 1, "(")) {
        token = text;
      } else if (kBannedStreams.count(text) > 0) {
        token = text;
      } else if (kBannedStd.count(text) > 0 && i >= 2 &&
                 IsPunct(*code[i - 1], "::") && IsIdent(*code[i - 2], "std")) {
        token = "std::" + text;
      }
      if (token.empty()) continue;
      Add(findings, node, code[i]->line, "obs-seam",
          "'" + token +
              "' in src/obs: read time only through the injectable "
              "obs::Clock (obs/clock.*) and return strings instead of "
              "doing IO; callers own files and clocks");
    }
  }
}

// --- dur-seam ----------------------------------------------------------------

void CheckDurSeam(const AnalysisContext& context,
                  std::vector<Finding>* findings) {
  static const std::set<std::string> kBannedCalls = {
      "fopen", "fwrite", "fsync", "fdatasync", "ftruncate", "rename"};
  static const std::set<std::string> kBannedStreams = {"ofstream", "fstream"};
  for (const FileNode& node : context.graph->files) {
    if (!InSrc(node)) continue;
    // src/io (artifact persistence) and src/dur (WAL/checkpoints) are
    // the two sanctioned file-writing directories. obs/log.cc's stderr
    // sink writes a terminal stream, not durable state, so it is exempt
    // by name rather than widening the module allowlist.
    if (node.module == "io" || node.module == "dur") continue;
    if (node.path == "src/obs/log.cc") continue;
    const Code code = CodeTokens(node);
    for (size_t i = 0; i < code.size(); ++i) {
      if (code[i]->kind != TokenKind::kIdentifier) continue;
      const std::string& text = code[i]->text;
      std::string token;
      if (kBannedCalls.count(text) > 0 && IsPunctAt(code, i + 1, "(")) {
        token = text;
      } else if (kBannedStreams.count(text) > 0) {
        token = text;
      }
      if (token.empty()) continue;
      Add(findings, node, code[i]->line, "dur-seam",
          "'" + token +
              "' outside src/io and src/dur: all file writes must flow "
              "through those directories (dur::FileOps for durable state) "
              "so fault injection and crash-recovery tests cover every "
              "persisted byte");
    }
  }
}

}  // namespace analysis
}  // namespace firehose
