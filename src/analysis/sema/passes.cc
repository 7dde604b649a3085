#include "src/analysis/sema/passes.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/analysis/sema/dataflow.h"
#include "src/analysis/sema/functions.h"
#include "src/analysis/sema/scope.h"
#include "src/analysis/sema/summaries.h"
#include "src/analysis/sema/token_util.h"

namespace firehose {
namespace analysis {
namespace sema {

namespace {

bool InSrc(const std::string& path) { return path.rfind("src/", 0) == 0; }

// --- view-invalidation -------------------------------------------------------

// The annotation table: which local types are views into which ring
// type, which method hands them out, and which methods invalidate them
// when the ring type's own declarations are not in the analyzed set
// (fixtures, partial runs). When they are, every non-const method of
// the object type invalidates.
struct ViewRule {
  const char* object_type;
  std::set<std::string> view_types;
  std::set<std::string> producers;
  std::set<std::string> fallback_invalidators;
};

const std::vector<ViewRule>& ViewRules() {
  static const std::vector<ViewRule> kRules = {
      {"PostBin",
       {"LaneSpan", "LaneSpans"},
       {"Segments"},
       {"Push", "EvictOlderThan", "Load", "Grow"}},
  };
  return kRules;
}

bool IsProducer(const std::string& method) {
  for (const ViewRule& rule : ViewRules()) {
    if (rule.producers.count(method) > 0) return true;
  }
  return false;
}

// Does `method`, called on an object a view of rule `rule_index` is
// bound to, invalidate that view?
bool Invalidates(const SemaModel& model, size_t rule_index,
                 const std::string& method) {
  const ViewRule& rule = ViewRules()[rule_index];
  if (rule.producers.count(method) > 0) return false;  // re-acquire
  const TypeInfo* info = model.FindType(rule.object_type);
  if (info != nullptr) {
    auto it = info->method_is_const.find(method);
    if (it != info->method_is_const.end()) return !it->second;
  }
  return rule.fallback_invalidators.count(method) > 0;
}

struct ViewBinding {
  size_t rule = 0;
  std::string object;  // bound ring variable; empty until a producer call
  bool valid = true;
  int invalidated_line = 0;
  std::string invalidator;  // "bin.Push(...)"
};

class ViewClient {
 public:
  using State = std::map<std::string, ViewBinding>;

  ViewClient(const SemaModel& model, const TokenView& code, std::string path,
             std::vector<Finding>* findings)
      : model_(model), code_(code), path_(std::move(path)),
        findings_(findings) {}

  void Transfer(const Stmt& stmt, int /*depth*/, State* state) {
    const size_t end = std::min(stmt.end, code_.size());
    std::set<size_t> bound_here;

    // New view declarations.
    size_t decl_begin = stmt.begin;
    std::vector<Decl> decls = ExtractDecls(code_, decl_begin, end);
    if (decls.empty() && IsPunctAt(code_, decl_begin, "(")) {
      // for-init declarations sit one token inside the parens.
      decls = ExtractDecls(code_, decl_begin + 1, end);
    }
    for (const Decl& decl : decls) {
      for (size_t r = 0; r < ViewRules().size(); ++r) {
        if (ViewRules()[r].view_types.count(decl.type_base) > 0) {
          ViewBinding binding;
          binding.rule = r;
          (*state)[decl.name] = binding;
          bound_here.insert(decl.name_index);
        }
      }
    }

    for (size_t k = stmt.begin; k < end; ++k) {
      const Token& t = *code_[k];
      if (t.kind != TokenKind::kIdentifier) continue;
      // obj.Method(...) / obj->Method(...)
      if (k + 3 < end &&
          (IsPunctAt(code_, k + 1, ".") || IsPunctAt(code_, k + 1, "->")) &&
          code_[k + 2]->kind == TokenKind::kIdentifier &&
          IsPunctAt(code_, k + 3, "(")) {
        const std::string& object = t.text;
        const std::string& method = code_[k + 2]->text;
        const size_t args_end = MatchForward(code_, k + 3, "(", ")");
        if (IsProducer(method)) {
          // Binds (or re-validates) every tracked view named in the args.
          for (size_t a = k + 4; a + 1 < args_end && a < end; ++a) {
            if (code_[a]->kind != TokenKind::kIdentifier) continue;
            auto it = state->find(code_[a]->text);
            if (it != state->end()) {
              it->second.object = object;
              it->second.valid = true;
              it->second.invalidated_line = 0;
              bound_here.insert(a);
            }
          }
          continue;
        }
        for (auto& [name, binding] : *state) {
          if (binding.valid && !binding.object.empty() &&
              binding.object == object &&
              Invalidates(model_, binding.rule, method)) {
            binding.valid = false;
            binding.invalidated_line = t.line;
            binding.invalidator = object + "." + method + "()";
          }
        }
        continue;
      }
      // A read of a tracked view.
      if (bound_here.count(k) > 0) continue;
      auto it = state->find(t.text);
      if (it == state->end() || it->second.valid) continue;
      if (!reported_.insert({t.line, t.text}).second) continue;
      const ViewRule& rule = ViewRules()[it->second.rule];
      findings_->push_back(
          {path_, t.line, "view-invalidation",
           "'" + t.text + "' (" + rule.object_type + " view) is read after '" +
               it->second.invalidator + "' on line " +
               std::to_string(it->second.invalidated_line) +
               " invalidated it; re-acquire with '" + it->second.object + "." +
               *rule.producers.begin() + "(...)' before reading",
           ""});
    }
  }

  State Merge(const State& a, const State& b) {
    State out = a;
    for (const auto& [name, binding] : b) {
      auto it = out.find(name);
      if (it == out.end()) {
        out[name] = binding;
      } else if (!binding.valid && it->second.valid) {
        it->second = binding;  // invalid-on-any-path wins
      } else if (it->second.object.empty() && !binding.object.empty()) {
        it->second.object = binding.object;
      }
    }
    return out;
  }

  bool Equal(const State& a, const State& b) {
    if (a.size() != b.size()) return false;
    for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
      if (ia->first != ib->first || ia->second.valid != ib->second.valid ||
          ia->second.object != ib->second.object) {
        return false;
      }
    }
    return true;
  }

  void ExitScopesTo(int /*depth*/, State* /*state*/) {}

 private:
  const SemaModel& model_;
  const TokenView& code_;
  const std::string path_;
  std::vector<Finding>* findings_;
  std::set<std::pair<int, std::string>> reported_;
};

// --- lock-discipline ---------------------------------------------------------

struct LockState {
  /// mutex name -> block depth it was acquired at (-1: held at entry via
  /// FIREHOSE_REQUIRES).
  std::map<std::string, int> held;
  /// guard variable -> mutex it manages (for .lock()/.unlock()).
  std::map<std::string, std::string> guards;
};

const std::set<std::string>& GuardTypes() {
  static const std::set<std::string> kTypes = {"lock_guard", "scoped_lock",
                                               "unique_lock", "shared_lock"};
  return kTypes;
}

const std::set<std::string>& LockTagArgs() {
  static const std::set<std::string> kTags = {"adopt_lock", "defer_lock",
                                              "try_to_lock", "std"};
  return kTags;
}

class LockClient {
 public:
  using State = LockState;

  LockClient(const TypeInfo* type,
             const std::map<std::string, std::vector<std::string>>*
                 free_requires,
             const std::set<std::string>* mutex_names, const TokenView& code,
             std::string path, std::vector<Finding>* findings)
      : type_(type), free_requires_(free_requires), mutex_names_(mutex_names),
        code_(code), path_(std::move(path)), findings_(findings) {}

  void Transfer(const Stmt& stmt, int depth, State* state) {
    const size_t end = std::min(stmt.end, code_.size());
    for (size_t k = stmt.begin; k < end; ++k) {
      const Token& t = *code_[k];
      if (t.kind != TokenKind::kIdentifier) continue;

      // std::lock_guard<std::mutex> lock(mu_); — acquisition by guard.
      if (GuardTypes().count(t.text) > 0) {
        size_t j = k + 1;
        if (IsPunctAt(code_, j, "<")) j = SkipAngles(code_, j);
        if (IsAnyIdentAt(code_, j)) {
          const std::string guard_var = code_[j]->text;
          size_t open = j + 1;
          if (IsPunctAt(code_, open, "(") || IsPunctAt(code_, open, "{")) {
            const bool brace = IsPunctAt(code_, open, "{");
            const size_t close = brace ? MatchForward(code_, open, "{", "}")
                                       : MatchForward(code_, open, "(", ")");
            bool deferred = false;
            std::string first_mutex;
            // Each top-level comma-separated arg contributes its last
            // identifier as a mutex name; std:: tag arguments excluded.
            std::string last_ident;
            int arg_depth = 0;
            for (size_t a = open + 1; a + 1 < close && a < end; ++a) {
              const Token& u = *code_[a];
              if (u.kind == TokenKind::kPunct) {
                if (u.text == "(" || u.text == "{" || u.text == "[") {
                  ++arg_depth;
                } else if (u.text == ")" || u.text == "}" || u.text == "]") {
                  --arg_depth;
                } else if (u.text == "," && arg_depth == 0) {
                  AcquireArg(last_ident, depth, state, &first_mutex);
                  last_ident.clear();
                }
                continue;
              }
              if (u.kind == TokenKind::kIdentifier) {
                if (u.text == "defer_lock") deferred = true;
                last_ident = u.text;
              }
            }
            AcquireArg(last_ident, depth, state, &first_mutex);
            if (!first_mutex.empty()) state->guards[guard_var] = first_mutex;
            if (deferred) {
              // defer_lock: registered but not held until .lock().
              if (!first_mutex.empty()) state->held.erase(first_mutex);
            }
            k = close > k ? close - 1 : k;
            continue;
          }
        }
      }

      // guard.lock() / guard.unlock() / mu_.lock() / mu_.unlock().
      if (k + 3 < end && IsPunctAt(code_, k + 1, ".") &&
          (IsIdentAt(code_, k + 2, "lock") ||
           IsIdentAt(code_, k + 2, "unlock")) &&
          IsPunctAt(code_, k + 3, "(")) {
        const bool is_lock = IsIdentAt(code_, k + 2, "lock");
        std::string mutex_name;
        auto guard_it = state->guards.find(t.text);
        if (guard_it != state->guards.end()) {
          mutex_name = guard_it->second;
        } else if (mutex_names_->count(t.text) > 0) {
          mutex_name = t.text;
        }
        if (!mutex_name.empty()) {
          if (is_lock) {
            state->held[mutex_name] = depth;
          } else {
            state->held.erase(mutex_name);
          }
          k += 3;
          continue;
        }
      }

      // Guarded member access. Accesses through another object
      // (`other.events_`) are skipped — its mutex is a different
      // instance; `this->events_` still counts.
      if (type_ != nullptr) {
        auto guarded = type_->guarded_members.find(t.text);
        if (guarded != type_->guarded_members.end()) {
          const bool through_other =
              k > 0 &&
              (IsPunctAt(code_, k - 1, ".") || IsPunctAt(code_, k - 1, "->")) &&
              !(k >= 2 && IsIdentAt(code_, k - 2, "this"));
          if (!through_other && state->held.count(guarded->second) == 0) {
            Report(t.line, t.text,
                   "'" + t.text + "' is FIREHOSE_GUARDED_BY(" +
                       guarded->second + ") but accessed without holding '" +
                       guarded->second + "'");
          }
          continue;
        }
      }

      // Calls into FIREHOSE_REQUIRES functions without the capability.
      if (IsPunctAt(code_, k + 1, "(")) {
        const bool through_other =
            k > 0 &&
            (IsPunctAt(code_, k - 1, ".") || IsPunctAt(code_, k - 1, "->")) &&
            !(k >= 2 && IsIdentAt(code_, k - 2, "this"));
        if (through_other) continue;
        const std::vector<std::string>* caps = nullptr;
        if (type_ != nullptr) {
          auto it = type_->method_requires.find(t.text);
          if (it != type_->method_requires.end()) caps = &it->second;
        }
        if (caps == nullptr) {
          auto it = free_requires_->find(t.text);
          if (it != free_requires_->end()) caps = &it->second;
        }
        if (caps != nullptr) {
          for (const std::string& cap : *caps) {
            if (state->held.count(cap) == 0) {
              Report(t.line, t.text,
                     "call to '" + t.text + "' which FIREHOSE_REQUIRES(" +
                         cap + ") without holding '" + cap + "'");
            }
          }
        }
      }
    }
  }

  State Merge(const State& a, const State& b) {
    State out;
    for (const auto& [mutex_name, depth] : a.held) {
      auto it = b.held.find(mutex_name);
      if (it != b.held.end()) {
        out.held[mutex_name] = std::max(depth, it->second);
      }
    }
    out.guards = a.guards;
    for (const auto& [guard_var, mutex_name] : b.guards) {
      out.guards.emplace(guard_var, mutex_name);
    }
    return out;
  }

  bool Equal(const State& a, const State& b) {
    return a.held == b.held && a.guards == b.guards;
  }

  void ExitScopesTo(int depth, State* state) {
    for (auto it = state->held.begin(); it != state->held.end();) {
      if (it->second > depth) {
        it = state->held.erase(it);
      } else {
        ++it;
      }
    }
  }

 private:
  void AcquireArg(const std::string& last_ident, int depth, State* state,
                  std::string* first_mutex) {
    if (last_ident.empty() || LockTagArgs().count(last_ident) > 0) return;
    state->held[last_ident] = depth;
    if (first_mutex->empty()) *first_mutex = last_ident;
  }

  void Report(int line, const std::string& name, const std::string& message) {
    if (!reported_.insert({line, name}).second) return;
    findings_->push_back({path_, line, "lock-discipline", message, ""});
  }

  const TypeInfo* type_;
  const std::map<std::string, std::vector<std::string>>* free_requires_;
  const std::set<std::string>* mutex_names_;
  const TokenView& code_;
  const std::string path_;
  std::vector<Finding>* findings_;
  std::set<std::pair<int, std::string>> reported_;
};

// --- atomic-ordering ---------------------------------------------------------

const std::set<std::string>& RelaxedAllowlist() {
  // The documented lock-free seams, where relaxed ordering is part of a
  // reviewed protocol (trace registration, the flight recorder's seqlock
  // slots, the GCRA log rate limiter, and the watchdog's progress
  // slots). Everywhere else relaxed needs promotion to one of these
  // files or a stronger order.
  static const std::set<std::string> kFiles = {
      "src/obs/trace.h",           "src/obs/trace.cc",
      "src/obs/flight_recorder.h", "src/obs/flight_recorder.cc",
      "src/obs/log.h",             "src/obs/log.cc",
      "src/obs/watchdog.h",        "src/obs/watchdog.cc"};
  return kFiles;
}

const std::set<std::string>& AtomicMemberOps() {
  static const std::set<std::string> kOps = {
      "load",      "store",     "exchange",
      "fetch_add", "fetch_sub", "fetch_and",
      "fetch_or",  "fetch_xor", "compare_exchange_weak",
      "compare_exchange_strong"};
  return kOps;
}

// Collects names declared `std::atomic<...> name` in a file.
std::set<std::string> AtomicNamesIn(const TokenView& code) {
  std::set<std::string> names;
  for (size_t i = 0; i + 1 < code.size(); ++i) {
    if (!IsIdent(*code[i], "atomic")) continue;
    if (!IsPunctAt(code, i + 1, "<")) continue;
    const size_t after = SkipAngles(code, i + 1);
    if (after == i + 2) continue;
    if (IsAnyIdentAt(code, after)) names.insert(code[after]->text);
  }
  return names;
}

// --- blocking-in-hot-path ----------------------------------------------------

const std::set<std::string>& BannedBlockingCalls() {
  static const std::set<std::string> kCalls = {
      "sleep_for", "sleep_until", "usleep",  "nanosleep", "fopen",
      "fclose",    "fread",       "fwrite",  "fflush",    "fprintf",
      "printf",    "fscanf",      "fgets",   "fputs",     "getline",
      "system",    "popen",       "getenv"};
  return kCalls;
}

const std::set<std::string>& BannedStreamTypes() {
  static const std::set<std::string> kTypes = {"ifstream", "ofstream",
                                               "fstream"};
  return kTypes;
}

}  // namespace

// --- pass drivers ------------------------------------------------------------

void CheckViewInvalidation(const AnalysisContext& context,
                           std::vector<Finding>* findings) {
  const SemaModel* model = context.sema;
  if (model == nullptr || context.graph == nullptr) return;
  for (const FileSema& fs : model->files) {
    const FileNode& node = context.graph->files[fs.file];
    bool mentions_view = false;
    for (const Token* token : fs.code) {
      if (token->kind != TokenKind::kIdentifier) continue;
      for (const ViewRule& rule : ViewRules()) {
        if (rule.view_types.count(token->text) > 0) mentions_view = true;
      }
      if (mentions_view) break;
    }
    if (!mentions_view) continue;
    for (const FunctionDef& fn : fs.functions) {
      const Stmt root = BuildStmtTree(fs.code, fn.body_begin, fn.body_end);
      ViewClient client(*model, fs.code, node.path, findings);
      RunDataflow(root, ViewClient::State{}, &client);
    }
  }
}

void CheckLockDiscipline(const AnalysisContext& context,
                         std::vector<Finding>* findings) {
  const SemaModel* model = context.sema;
  if (model == nullptr || context.graph == nullptr) return;

  // Annotation universe: guarded members, REQUIRES'd functions and the
  // mutexes they name. Files touching none of these are skipped, so the
  // pass costs nothing on unannotated code.
  std::set<std::string> relevant;
  std::set<std::string> mutex_names;
  std::map<std::string, std::vector<std::string>> free_requires;
  for (const auto& [type_name, info] : model->types) {
    for (const auto& [member, mutex_name] : info.guarded_members) {
      relevant.insert(member);
      mutex_names.insert(mutex_name);
    }
    for (const auto& [method, caps] : info.method_requires) {
      relevant.insert(method);
      for (const std::string& cap : caps) mutex_names.insert(cap);
    }
  }
  for (const auto& [name, defs] : model->functions_by_name) {
    for (const auto& [file, index] : defs) {
      const FunctionDef& def = model->files[file].functions[index];
      if (def.class_name.empty() && !def.requires_caps.empty()) {
        free_requires[name] = def.requires_caps;
        relevant.insert(name);
        for (const std::string& cap : def.requires_caps) {
          mutex_names.insert(cap);
        }
      }
    }
  }
  if (relevant.empty()) return;

  for (const FileSema& fs : model->files) {
    const FileNode& node = context.graph->files[fs.file];
    for (const FunctionDef& fn : fs.functions) {
      bool touches = false;
      for (size_t k = fn.body_begin; k < fn.body_end && k < fs.code.size();
           ++k) {
        if (fs.code[k]->kind == TokenKind::kIdentifier &&
            relevant.count(fs.code[k]->text) > 0) {
          touches = true;
          break;
        }
      }
      if (!touches) continue;
      const TypeInfo* type =
          fn.class_name.empty() ? nullptr : model->FindType(fn.class_name);
      LockState entry;
      for (const std::string& cap : fn.requires_caps) entry.held[cap] = -1;
      if (type != nullptr) {
        auto it = type->method_requires.find(fn.name);
        if (it != type->method_requires.end()) {
          for (const std::string& cap : it->second) entry.held[cap] = -1;
        }
      }
      const Stmt root = BuildStmtTree(fs.code, fn.body_begin, fn.body_end);
      LockClient client(type, &free_requires, &mutex_names, fs.code,
                        node.path, findings);
      RunDataflow(root, std::move(entry), &client);
    }
  }
}

void CheckAtomicOrdering(const AnalysisContext& context,
                         std::vector<Finding>* findings) {
  const SemaModel* model = context.sema;
  if (model == nullptr || context.graph == nullptr) return;

  // Atomic names per file, then widened over each file's include
  // closure so a header's atomic members are known in its .cc.
  std::vector<std::set<std::string>> per_file(model->files.size());
  for (size_t i = 0; i < model->files.size(); ++i) {
    per_file[i] = AtomicNamesIn(model->files[i].code);
  }

  for (size_t i = 0; i < model->files.size(); ++i) {
    const FileNode& node = context.graph->files[i];
    if (!InSrc(node.path)) continue;
    const TokenView& code = model->files[i].code;

    std::set<std::string> atomics = per_file[i];
    for (int dep : model->reachable_includes[i]) {
      atomics.insert(per_file[dep].begin(), per_file[dep].end());
    }

    const bool relaxed_allowed = RelaxedAllowlist().count(node.path) > 0;
    std::set<std::pair<int, std::string>> reported;
    const auto report = [&](int line, const std::string& key,
                            const std::string& message) {
      if (!reported.insert({line, key}).second) return;
      findings->push_back({node.path, line, "atomic-ordering", message, ""});
    };

    for (size_t k = 0; k < code.size(); ++k) {
      const Token& t = *code[k];
      if (t.kind != TokenKind::kIdentifier) continue;

      if (t.text == "memory_order_relaxed" && !relaxed_allowed) {
        report(t.line, t.text,
               "std::memory_order_relaxed outside the allowlisted lock-free "
               "seams (trace.{h,cc}, flight_recorder.{h,cc}, log.{h,cc}, "
               "watchdog.{h,cc}); move the protocol there or use a "
               "stronger ordering");
        continue;
      }
      if (atomics.count(t.text) == 0) continue;

      // name.op(...) with no explicit memory_order argument.
      if (k + 3 < code.size() && IsPunctAt(code, k + 1, ".") &&
          code[k + 2]->kind == TokenKind::kIdentifier &&
          AtomicMemberOps().count(code[k + 2]->text) > 0 &&
          IsPunctAt(code, k + 3, "(")) {
        const size_t close = MatchForward(code, k + 3, "(", ")");
        bool explicit_order = false;
        for (size_t a = k + 4; a + 1 < close; ++a) {
          if (code[a]->kind == TokenKind::kIdentifier &&
              code[a]->text.rfind("memory_order", 0) == 0) {
            explicit_order = true;
            break;
          }
        }
        if (!explicit_order) {
          report(t.line, t.text,
                 "seq_cst-default '" + t.text + "." + code[k + 2]->text +
                     "()' on an atomic; spell the memory order explicitly "
                     "(std::memory_order_...)");
        }
        continue;
      }

      // ++name / name++ / name += ... — seq_cst read-modify-write.
      const bool prefix_rmw =
          k > 0 && (IsPunctAt(code, k - 1, "++") || IsPunctAt(code, k - 1, "--"));
      const bool postfix_rmw =
          IsPunctAt(code, k + 1, "++") || IsPunctAt(code, k + 1, "--") ||
          IsPunctAt(code, k + 1, "+=") || IsPunctAt(code, k + 1, "-=") ||
          IsPunctAt(code, k + 1, "|=") || IsPunctAt(code, k + 1, "&=") ||
          IsPunctAt(code, k + 1, "^=");
      if (prefix_rmw || postfix_rmw) {
        report(t.line, t.text,
               "seq_cst-default read-modify-write on atomic '" + t.text +
                   "'; use fetch_add/fetch_sub with an explicit memory "
                   "order");
      }
    }
  }
}

void CheckBlockingInHotPath(const AnalysisContext& context,
                            std::vector<Finding>* findings) {
  const SemaModel* model = context.sema;
  if (model == nullptr || context.graph == nullptr) return;

  // Roots: the per-post decide path.
  std::vector<DefId> roots;
  for (size_t i = 0; i < model->files.size(); ++i) {
    if (context.graph->files[i].module != "core") continue;
    for (size_t j = 0; j < model->files[i].functions.size(); ++j) {
      const FunctionDef& def = model->files[i].functions[j];
      if (def.name == "Offer" || def.name == "OfferBatch") {
        roots.push_back({static_cast<int>(i), static_cast<int>(j)});
      }
    }
  }

  const CallGraph call_graph = BuildCallGraph(*model);
  std::map<DefId, DefId> parent;
  const std::set<DefId> reachable = ReachableFrom(
      call_graph, roots,
      [&](const DefId& target) {
        // ResolveKernelOps is the SIMD dispatch probe
        // (src/core/kernels/dispatch.cc): it runs exactly once behind
        // ResolvedDispatch's magic static, so its environment read is
        // cold init reached lazily from the first Offer, not per-post
        // work. Cutting the walk at this one name keeps the decide path
        // clean without allowlisting getenv for everyone.
        if (DefAt(*model, target).name == "ResolveKernelOps") return false;
        return InSrc(context.graph->files[target.first].path);
      },
      &parent);

  std::set<std::pair<std::string, int>> reported;
  for (const DefId& id : reachable) {
    const FunctionDef& def = DefAt(*model, id);
    const FileSema& fs = model->files[id.first];
    const std::string& path = context.graph->files[id.first].path;
    for (size_t k = def.body_begin; k < def.body_end && k < fs.code.size();
         ++k) {
      const Token& t = *fs.code[k];
      if (t.kind != TokenKind::kIdentifier) continue;
      const bool banned_call = BannedBlockingCalls().count(t.text) > 0 &&
                               IsPunctAt(fs.code, k + 1, "(");
      const bool banned_stream = BannedStreamTypes().count(t.text) > 0;
      if (!banned_call && !banned_stream) continue;
      if (!reported.insert({path, t.line}).second) continue;
      findings->push_back(
          {path, t.line, "blocking-in-hot-path",
           std::string(banned_call ? "blocking call '" : "file stream '") +
               t.text + "' inside '" + QualifiedName(*model, id) +
               "', which is reachable from the per-post decide path (" +
               ChainOf(*model, parent, id) +
               "); hot-path code must not sleep or do IO",
           ""});
    }
  }
}

// --- thread-confinement ------------------------------------------------------

namespace {

// Reserved role for single-threaded phases (setup, recovery): never a
// reachability root, constrains nothing, but still cuts walks arriving
// from real roles.
constexpr const char* kExclusiveRole = "exclusive";

std::string EffectiveRole(const SemaModel& model, const DefId& id) {
  const FunctionDef& def = DefAt(model, id);
  if (!def.runs_on.empty()) return def.runs_on;
  if (!def.class_name.empty()) {
    const TypeInfo* type = model.FindType(def.class_name);
    if (type != nullptr) {
      auto it = type->method_runs_on.find(def.name);
      if (it != type->method_runs_on.end()) return it->second;
    }
  }
  return "";
}

}  // namespace

void CheckThreadConfinement(const AnalysisContext& context,
                            std::vector<Finding>* findings) {
  const SemaModel* model = context.sema;
  if (model == nullptr || context.graph == nullptr) return;

  // Roots per role, in file/function registration order so BFS chains
  // are deterministic.
  std::map<std::string, std::vector<DefId>> roots;
  for (size_t i = 0; i < model->files.size(); ++i) {
    for (size_t j = 0; j < model->files[i].functions.size(); ++j) {
      const DefId id{static_cast<int>(i), static_cast<int>(j)};
      const std::string role = EffectiveRole(*model, id);
      if (!role.empty() && role != kExclusiveRole) roots[role].push_back(id);
    }
  }
  if (roots.empty()) return;

  const CallGraph call_graph = BuildCallGraph(*model);
  for (const auto& [role, role_roots] : roots) {
    std::map<DefId, DefId> parent;
    const std::set<DefId> reachable = ReachableFrom(
        call_graph, role_roots,
        [&](const DefId& target) {
          if (!InSrc(context.graph->files[target.first].path)) return false;
          const std::string target_role = EffectiveRole(*model, target);
          // A callee asserting its own role cuts the walk there: the
          // assertion is trusted, not re-derived.
          return target_role.empty() || target_role == role;
        },
        &parent);

    std::set<std::pair<std::string, int>> reported;
    for (const DefId& id : reachable) {
      const FunctionDef& def = DefAt(*model, id);
      const FileSema& fs = model->files[id.first];
      const std::string& path = context.graph->files[id.first].path;
      if (!InSrc(path)) continue;
      const TypeInfo* type =
          def.class_name.empty() ? nullptr : model->FindType(def.class_name);
      if (type == nullptr) continue;
      for (size_t k = def.body_begin; k < def.body_end && k < fs.code.size();
           ++k) {
        const Token& t = *fs.code[k];
        if (t.kind != TokenKind::kIdentifier) continue;
        // Accesses through another object (`other.x_`) are a different
        // instance's state; `this->x_` still counts.
        const bool through_other =
            k > 0 &&
            (IsPunctAt(fs.code, k - 1, ".") ||
             IsPunctAt(fs.code, k - 1, "->")) &&
            !(k >= 2 && IsIdentAt(fs.code, k - 2, "this"));
        if (through_other) continue;

        auto owned = type->owned_members.find(t.text);
        if (owned != type->owned_members.end() && owned->second != role) {
          if (reported.insert({t.text, t.line}).second) {
            findings->push_back(
                {path, t.line, "thread-confinement",
                 "'" + t.text + "' is FIREHOSE_THREAD_OWNED(" + owned->second +
                     ") but touched from '" + QualifiedName(*model, id) +
                     "', which runs on '" + role + "' (" +
                     ChainOf(*model, parent, id) + ")",
                 t.text + "@" + role});
          }
          continue;
        }

        // queue_.Push(...) / queue_->TryPush(...) against producer and
        // consumer role annotations.
        if (k + 3 < fs.code.size() &&
            (IsPunctAt(fs.code, k + 1, ".") ||
             IsPunctAt(fs.code, k + 1, "->")) &&
            fs.code[k + 2]->kind == TokenKind::kIdentifier &&
            IsPunctAt(fs.code, k + 3, "(")) {
          const std::string& method = fs.code[k + 2]->text;
          const bool is_push = method == "Push" || method == "TryPush";
          const bool is_pop = method == "Pop" || method == "TryPop";
          if (!is_push && !is_pop) continue;
          const auto& table = is_push ? type->producer_only_members
                                      : type->consumer_only_members;
          auto it = table.find(t.text);
          if (it == table.end() || it->second == role) continue;
          if (!reported.insert({t.text + "." + method, t.line}).second) {
            continue;
          }
          findings->push_back(
              {path, t.line, "thread-confinement",
               "'" + t.text + "." + method + "()' but '" + t.text + "' is " +
                   (is_push ? "FIREHOSE_PRODUCER_ONLY("
                            : "FIREHOSE_CONSUMER_ONLY(") +
                   it->second + ") and '" + QualifiedName(*model, id) +
                   "' runs on '" + role + "' (" +
                   ChainOf(*model, parent, id) + ")",
               t.text + "." + method + "@" + role});
        }
      }
    }
  }
}

// --- untrusted-input ---------------------------------------------------------

namespace {

std::string SinkPhrase(const std::string& sink) {
  if (sink == "resize" || sink == "reserve") {
    return "a '" + sink + "' argument";
  }
  if (sink == "index") return "an array index";
  if (sink == "new[]") return "an array-new size";
  if (sink == "malloc" || sink == "calloc" || sink == "realloc") {
    return "an allocation size ('" + sink + "')";
  }
  if (sink == "memcpy" || sink == "memmove" || sink == "memset") {
    return "the byte count of '" + sink + "'";
  }
  return sink;  // "arg N of 'Callee'"
}

std::string JoinOrigins(const std::set<std::string>& origins) {
  std::string out;
  for (const std::string& origin : origins) {
    if (!out.empty()) out += ", ";
    out += origin;
  }
  return out;
}

}  // namespace

void CheckUntrustedInput(const AnalysisContext& context,
                         std::vector<Finding>* findings) {
  const SemaModel* model = context.sema;
  if (model == nullptr || context.graph == nullptr) return;
  if (model->taint_sources.empty()) return;

  const CallGraph call_graph = BuildCallGraph(*model);
  const SummaryTable table = BuildSummaries(*model, call_graph);
  for (const auto& [id, summary] : table.summaries) {
    const std::string& path = context.graph->files[id.first].path;
    if (!InSrc(path)) continue;
    for (const TaintHit& hit : summary.hits) {
      findings->push_back(
          {path, hit.line, "untrusted-input",
           "tainted value '" + hit.var + "' (from " +
               JoinOrigins(hit.origins) + ") used as " + SinkPhrase(hit.sink) +
               " in '" + QualifiedName(*model, id) +
               "' without a sanctioning bound check",
           ""});
    }
  }
}

// --- ordering-discipline -----------------------------------------------------

namespace {

/// WAL handles whose Append anchors the append-before-decide rule, the
/// same shape of seeded table the view-invalidation pass uses.
const std::set<std::string>& WalHandles() {
  static const std::set<std::string> kHandles = {"wal_", "wal"};
  return kHandles;
}

size_t SubtreeEnd(const Stmt& stmt) {
  size_t end = stmt.end;
  for (const Stmt& child : stmt.children) {
    end = std::max(end, SubtreeEnd(child));
  }
  return end;
}

void CollectLoopRanges(const Stmt& stmt,
                       std::vector<std::pair<size_t, size_t>>* out) {
  if (stmt.kind == StmtKind::kLoop) {
    out->push_back({stmt.begin, SubtreeEnd(stmt)});
    return;  // nested loops are covered by the outer range
  }
  for (const Stmt& child : stmt.children) CollectLoopRanges(child, out);
}

// Number of top-level arguments of the call whose `(` is at `open`.
size_t TopLevelArgCount(const TokenView& code, size_t open, size_t close) {
  if (open + 1 >= close) return 0;  // `()` — close is the `)` index + 1
  size_t count = 1;
  int depth = 0;
  for (size_t k = open + 1; k + 1 < close; ++k) {
    const Token& t = *code[k];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "(" || t.text == "[" || t.text == "{") {
      ++depth;
    } else if (t.text == ")" || t.text == "]" || t.text == "}") {
      --depth;
    } else if (t.text == "," && depth == 0) {
      ++count;
    }
  }
  return count;
}

}  // namespace

void CheckOrderingDiscipline(const AnalysisContext& context,
                             std::vector<Finding>* findings) {
  const SemaModel* model = context.sema;
  if (model == nullptr || context.graph == nullptr) return;

  const CallGraph call_graph = BuildCallGraph(*model);
  std::set<std::string> deciding_names = {"Offer", "OfferBatch"};
  for (const DefId& id : DecidingDefs(*model, call_graph)) {
    deciding_names.insert(DefAt(*model, id).name);
  }

  for (size_t i = 0; i < model->files.size(); ++i) {
    const std::string& path = context.graph->files[i].path;
    if (!InSrc(path)) continue;
    const FileSema& fs = model->files[i];
    for (const FunctionDef& def : fs.functions) {
      // (a) one-argument condvar waits must sit in a predicate loop.
      // wait(lock, pred) re-checks internally and future.wait() has no
      // lock to re-check; only the bare wait(lock) form can wake
      // spuriously with no predicate.
      std::vector<std::pair<size_t, size_t>> loops;
      bool loops_built = false;
      for (size_t k = def.body_begin;
           k + 3 < fs.code.size() && k < def.body_end; ++k) {
        if (fs.code[k]->kind != TokenKind::kIdentifier) continue;
        if (!(IsPunctAt(fs.code, k + 1, ".") ||
              IsPunctAt(fs.code, k + 1, "->")) ||
            !IsIdentAt(fs.code, k + 2, "wait") ||
            !IsPunctAt(fs.code, k + 3, "(")) {
          continue;
        }
        const size_t close = MatchForward(fs.code, k + 3, "(", ")");
        if (TopLevelArgCount(fs.code, k + 3, close) != 1) continue;
        if (!loops_built) {
          const Stmt root =
              BuildStmtTree(fs.code, def.body_begin, def.body_end);
          CollectLoopRanges(root, &loops);
          loops_built = true;
        }
        bool in_loop = false;
        for (const auto& range : loops) {
          if (k + 2 >= range.first && k + 2 < range.second) {
            in_loop = true;
            break;
          }
        }
        if (in_loop) continue;
        findings->push_back(
            {path, fs.code[k]->line, "ordering-discipline",
             "'" + fs.code[k]->text +
                 ".wait(lock)' outside a predicate loop in '" +
                 (def.class_name.empty() ? def.name
                                         : def.class_name + "::" + def.name) +
                 "'; spurious wakeups require `while (!pred) cv.wait(lock)` "
                 "or the two-argument predicate form",
             ""});
      }

      // (b) append-before-decide: in a function with a direct WAL
      // append, no decide-path call may precede it.
      size_t first_append = 0;
      std::string append_expr;
      size_t first_decide = 0;
      std::string decide_name;
      for (size_t k = def.body_begin;
           k < def.body_end && k < fs.code.size(); ++k) {
        const Token& t = *fs.code[k];
        if (t.kind != TokenKind::kIdentifier) continue;
        if (first_append == 0 && WalHandles().count(t.text) > 0 &&
            k + 3 < fs.code.size() &&
            (IsPunctAt(fs.code, k + 1, ".") ||
             IsPunctAt(fs.code, k + 1, "->")) &&
            IsIdentAt(fs.code, k + 2, "Append") &&
            IsPunctAt(fs.code, k + 3, "(")) {
          first_append = k;
          append_expr = t.text + (IsPunctAt(fs.code, k + 1, ".") ? "." : "->") +
                        "Append";
        }
        if (first_decide == 0 && deciding_names.count(t.text) > 0 &&
            IsPunctAt(fs.code, k + 1, "(")) {
          first_decide = k;
          decide_name = t.text;
        }
      }
      if (first_append == 0 || first_decide == 0) continue;
      if (first_decide < first_append) {
        findings->push_back(
            {path, fs.code[first_decide]->line, "ordering-discipline",
             "decide-path call '" + decide_name + "' precedes '" +
                 append_expr + "(...)' in '" +
                 (def.class_name.empty() ? def.name
                                         : def.class_name + "::" + def.name) +
                 "'; durability requires the WAL append before the decide "
                 "path runs",
             ""});
      }
    }
  }
}

}  // namespace sema
}  // namespace analysis
}  // namespace firehose
