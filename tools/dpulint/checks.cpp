// The four dpulint rules (plus waiver hygiene), run against the Model.
// See dpulint.hpp for what each rule means and why it exists.
#include "dpulint.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <string_view>

namespace dpulint {

namespace {

bool suffix_match(const std::string& path, const std::string& suffix) {
  if (path.size() < suffix.size()) return false;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0)
    return false;
  // Boundary: exact match or preceded by a path separator.
  return path.size() == suffix.size() ||
         path[path.size() - suffix.size() - 1] == '/';
}

bool in_suffix_list(const std::string& path,
                    const std::vector<std::string>& suffixes) {
  for (const auto& s : suffixes) {
    if (suffix_match(path, s)) return true;
  }
  return false;
}

void add(std::vector<Finding>* out, const std::string& file, int line,
         const char* rule, std::string message) {
  out->push_back({file, line, rule, std::move(message)});
}

// ------------------------------------------------------------- hot-path

/// Category of a forbidden identifier, or nullptr if benign.
const char* forbidden_category(const Policy& p, const std::string& name) {
  if (p.forbidden_alloc.count(name)) return "allocation";
  if (p.forbidden_lock.count(name)) return "lock acquisition";
  if (p.forbidden_wait.count(name)) return "blocking wait";
  return nullptr;
}

/// Resolve a call site to first-party definitions. Unknowns resolve to
/// nothing (they are externals; the name scan already vetted the name).
std::vector<size_t> resolve_call(const Model& m, const Policy& p,
                                 const FuncDef& caller, const CallSite& cs) {
  auto it = m.by_base.find(cs.name);
  if (it == m.by_base.end()) return {};
  const bool common = p.common_names.count(cs.name) > 0;
  std::vector<size_t> out;
  for (size_t idx : it->second) {
    const FuncDef& cand = m.funcs[idx];
    if (&cand == &caller) continue;
    if (common && cand.file_index != caller.file_index) continue;
    if (!cs.qual.empty()) {
      const std::string want = cs.qual + "::" + cs.name;
      if (cand.qual_name != want) {
        if (cand.qual_name.size() <= want.size() + 2) continue;
        size_t off = cand.qual_name.size() - want.size();
        if (cand.qual_name.compare(off, want.size(), want) != 0) continue;
        if (cand.qual_name.compare(off - 2, 2, "::") != 0) continue;
      }
    }
    out.push_back(idx);
  }
  return out;
}

void check_hot_paths(const Model& m, const Policy& p,
                     std::vector<Finding>* out) {
  for (size_t root = 0; root < m.funcs.size(); ++root) {
    if (!m.funcs[root].hot) continue;
    const std::string& root_name = m.funcs[root].qual_name;

    // BFS over first-party callees; chain is for the message only.
    std::set<size_t> visited;
    std::deque<std::pair<size_t, std::string>> queue;
    queue.emplace_back(root, m.funcs[root].base_name);
    visited.insert(root);

    while (!queue.empty()) {
      auto [fi, chain] = queue.front();
      queue.pop_front();
      const FuncDef& fn = m.funcs[fi];
      const SourceFile& file = m.files[fn.file_index];
      const auto& toks = file.toks;

      // 1) Forbidden-name scan over the whole body: catches both calls
      //    (cv.wait(..)) and declarations (lockdep::ScopedLock lk(mu)).
      for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
        const Token& t = toks[i];
        if (t.kind != Token::Kind::kIdent) continue;
        if (file.line_waived(t.line, "hot-path")) continue;
        if (t.text == "new") {
          // `new (buf) T` placement form is allocation-free; `operator new`
          // mentions are declarations, not allocations.
          bool placement = i + 1 < fn.body_end &&
                           toks[i + 1].kind == Token::Kind::kPunct &&
                           toks[i + 1].text == "(";
          bool op_decl = i > fn.body_begin &&
                         toks[i - 1].kind == Token::Kind::kIdent &&
                         toks[i - 1].text == "operator";
          if (!placement && !op_decl) {
            add(out, file.path, t.line, "hot-path",
                "hot function '" + root_name +
                    "' reaches `new` (allocation) via " + chain);
          }
          continue;
        }
        const char* cat = forbidden_category(p, t.text);
        if (cat == nullptr) continue;
        // Only call-shaped (`x(`), template-decl (`x<`) or decl-shaped
        // (`Mutex m`) uses count — a field named `lock` read as `s.lock;`
        // is not an acquisition.
        if (i + 1 >= fn.body_end) continue;
        const Token& nx = toks[i + 1];
        bool armed = (nx.kind == Token::Kind::kPunct &&
                      (nx.text == "(" || nx.text == "<")) ||
                     nx.kind == Token::Kind::kIdent;
        if (!armed) continue;
        add(out, file.path, t.line, "hot-path",
            "hot function '" + root_name + "' reaches '" + t.text + "' (" +
                cat + ") via " + chain);
      }

      // 2) Descend into resolvable first-party callees. A waiver on the
      //    call line prunes the descent: the spill is documented there.
      for (const CallSite& cs : fn.calls) {
        if (file.line_waived(cs.line, "hot-path")) continue;
        for (size_t callee : resolve_call(m, p, fn, cs)) {
          if (visited.insert(callee).second) {
            queue.emplace_back(callee,
                               chain + " -> " + m.funcs[callee].base_name);
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ lock-order

struct DocOrder {
  std::set<std::string> classes;
  std::map<std::string, int> line_of;
  bool found_block = false;
  int block_line = 0;
};

int line_of_offset(const std::string& text, size_t off) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() + off, '\n'));
}

/// Parse the fenced ```lock-order block out of DESIGN.md. Any
/// whitespace/arrow-separated token containing a '.' is a lock class name;
/// '#' starts a comment.
DocOrder parse_doc_order(const std::string& text) {
  DocOrder d;
  size_t fence = text.find("```lock-order");
  if (fence == std::string::npos) return d;
  d.found_block = true;
  d.block_line = line_of_offset(text, fence);
  size_t body = text.find('\n', fence);
  if (body == std::string::npos) return d;
  ++body;
  size_t close = text.find("```", body);
  if (close == std::string::npos) close = text.size();
  size_t i = body;
  while (i < close) {
    size_t eol = text.find('\n', i);
    if (eol == std::string::npos || eol > close) eol = close;
    std::string line = text.substr(i, eol - i);
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    size_t k = 0;
    while (k < line.size()) {
      while (k < line.size() &&
             !(std::isalnum(static_cast<unsigned char>(line[k])) ||
               line[k] == '_')) {
        ++k;
      }
      size_t start = k;
      while (k < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[k])) ||
              line[k] == '_' || line[k] == '.')) {
        ++k;
      }
      if (k > start) {
        std::string tokn = line.substr(start, k - start);
        if (tokn.find('.') != std::string::npos) {
          d.classes.insert(tokn);
          d.line_of.emplace(tokn, line_of_offset(text, i));
        }
      }
    }
    i = eol + 1;
  }
  return d;
}

void check_lock_order(const Model& m, const Policy& p,
                      std::vector<Finding>* out) {
  if (!p.check_lock_order || p.design_text.empty()) return;
  DocOrder doc = parse_doc_order(p.design_text);
  if (!doc.found_block) {
    add(out, p.design_path, 1, "lock-order",
        "no fenced ```lock-order block found — the documented order in "
        "§3.12 must be machine-parseable so it cannot drift");
    return;
  }
  std::set<std::string> code;
  for (const MutexReg& reg : m.mutexes) {
    code.insert(reg.lock_class);
    if (doc.classes.count(reg.lock_class)) continue;
    const SourceFile& f = m.files[reg.file_index];
    if (f.line_waived(reg.line, "lock-order")) continue;
    add(out, f.path, reg.line, "lock-order",
        "lock class '" + reg.lock_class + "' is registered in code but "
        "missing from " + p.design_path + "'s ```lock-order block (§3.12)");
  }
  for (const auto& cls : doc.classes) {
    if (code.count(cls)) continue;
    add(out, p.design_path, doc.line_of[cls], "lock-order",
        "lock class '" + cls + "' is documented in the ```lock-order block "
        "but no lockdep::Mutex in code registers it");
  }
}

// -------------------------------------------------------- relaxed-atomic

void check_relaxed(const Model& m, const Policy& p,
                   std::vector<Finding>* out) {
  for (const SourceFile& f : m.files) {
    if (in_suffix_list(f.path, p.relaxed_whitelist)) continue;
    const auto& toks = f.toks;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Token::Kind::kIdent) continue;
      bool hit = t.text == "memory_order_relaxed";
      if (!hit && t.text == "relaxed" && i >= 2 &&
          toks[i - 1].kind == Token::Kind::kPunct && toks[i - 1].text == "::" &&
          toks[i - 2].kind == Token::Kind::kIdent &&
          toks[i - 2].text == "memory_order") {
        hit = true;  // std::memory_order::relaxed spelling
      }
      if (!hit) continue;
      if (f.line_waived(t.line, "relaxed-atomic")) continue;
      add(out, f.path, t.line, "relaxed-atomic",
          "raw memory_order_relaxed outside the approved monitor/stats "
          "wrappers — use dpurpc::relaxed::{load,store,add,sub} "
          "(common/relaxed.hpp) or waive with the ordering protocol it "
          "belongs to");
    }
  }
}

// ----------------------------------------------- trace-stage / pairing

void check_trace_stages(const Model& m, const Policy& p,
                        std::vector<Finding>* out) {
  if (!p.check_trace) return;
  const EnumDef* stage = nullptr;
  for (const EnumDef& e : m.enums) {
    if (e.name == p.stage_enum &&
        suffix_match(m.files[e.file_index].path, p.stage_enum_file_suffix)) {
      stage = &e;
      break;
    }
  }
  if (stage == nullptr) return;  // no trace library in this tree

  // Collect recorded enumerators: Stage::kX mentioned inside the argument
  // list of a record()/record_global() call, outside the trace library.
  std::set<std::string> recorded;
  for (const SourceFile& f : m.files) {
    if (in_suffix_list(f.path, p.stage_site_exclude)) continue;
    const auto& toks = f.toks;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      if (toks[i + 1].kind != Token::Kind::kPunct || toks[i + 1].text != "(")
        continue;
      if (toks[i].text == p.record_root_call) {
        recorded.insert(p.root_stage);
        continue;
      }
      if (!p.record_calls.count(toks[i].text)) continue;
      int depth = 0;
      for (size_t k = i + 1; k < toks.size(); ++k) {
        if (toks[k].kind == Token::Kind::kPunct) {
          if (toks[k].text == "(") ++depth;
          else if (toks[k].text == ")" && --depth == 0) break;
        }
        if (toks[k].kind == Token::Kind::kIdent && toks[k].text == p.stage_enum &&
            k + 2 < toks.size() && toks[k + 1].kind == Token::Kind::kPunct &&
            toks[k + 1].text == "::" &&
            toks[k + 2].kind == Token::Kind::kIdent) {
          recorded.insert(toks[k + 2].text);
        }
      }
    }
  }

  const SourceFile& ef = m.files[stage->file_index];
  for (const auto& [name, line] : stage->enumerators) {
    if (p.stage_exempt.count(name)) continue;
    if (recorded.count(name)) continue;
    if (ef.line_waived(line, "trace-stage")) continue;
    add(out, ef.path, line, "trace-stage",
        "trace stage '" + name + "' has no record() site outside the trace "
        "library — a stage nothing records is a hole in every timeline");
  }
}

/// The reply batch's append call: `add(respond, ...)` hands the responder
/// to xrpc::ReplyBatch::add, which counts as invoking it.
constexpr std::string_view kBatchAddName = "add";

void check_trace_pairing(const Model& m, const Policy& p,
                         std::vector<Finding>* out) {
  if (!p.check_trace) return;
  for (const FuncDef& fn : m.funcs) {
    const SourceFile& f = m.files[fn.file_index];
    if (!in_suffix_list(f.path, p.responder_files)) continue;
    const auto& toks = f.toks;
    // First responder invocation in the body: `respond(`, `(*respond)(`,
    // or a batched reply `add(respond, ...)` (the responder as the first
    // argument of the reply batch's add).
    size_t invoke = 0;
    for (size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
      if (toks[i].kind != Token::Kind::kIdent ||
          toks[i].text != p.respond_name) {
        continue;
      }
      bool direct = toks[i + 1].kind == Token::Kind::kPunct &&
                    toks[i + 1].text == "(";
      bool deref = toks[i + 1].kind == Token::Kind::kPunct &&
                   toks[i + 1].text == ")" && i + 2 < fn.body_end &&
                   toks[i + 2].kind == Token::Kind::kPunct &&
                   toks[i + 2].text == "(";
      // Batched: walk back over a member chain (`pending.respond`,
      // `ps->respond`) to the call's `add(`.
      size_t j = i;
      while (j >= fn.body_begin + 2 && toks[j - 1].kind == Token::Kind::kPunct &&
             (toks[j - 1].text == "." || toks[j - 1].text == "->") &&
             toks[j - 2].kind == Token::Kind::kIdent) {
        j -= 2;
      }
      bool batched = toks[i + 1].kind == Token::Kind::kPunct &&
                     toks[i + 1].text == "," && j >= fn.body_begin + 2 &&
                     toks[j - 1].kind == Token::Kind::kPunct &&
                     toks[j - 1].text == "(" &&
                     toks[j - 2].kind == Token::Kind::kIdent &&
                     toks[j - 2].text == kBatchAddName;
      if (direct || deref || batched) {
        invoke = i;
        break;
      }
    }
    if (invoke == 0) continue;
    bool complete_first = false;
    for (size_t i = fn.body_begin; i < invoke; ++i) {
      if (toks[i].kind == Token::Kind::kIdent &&
          toks[i].text == p.complete_stage) {
        complete_first = true;
        break;
      }
    }
    if (complete_first) continue;
    if (f.line_waived(toks[invoke].line, "trace-pairing")) continue;
    add(out, f.path, toks[invoke].line, "trace-pairing",
        "'" + fn.qual_name + "' invokes the responder without recording " +
            p.complete_stage + " first (record-before-respond, §3.15)");
  }
}

// --------------------------------------------------------- waiver syntax

void check_waivers(const Model& m, std::vector<Finding>* out) {
  for (const SourceFile& f : m.files) {
    for (const Waiver& w : f.waivers) {
      if (!w.malformed) continue;
      add(out, f.path, w.comment_line, "waiver-syntax",
          "malformed dpulint waiver — expected "
          "'dpulint: allow(rule[,rule]): reason' with a non-empty reason");
    }
  }
}

}  // namespace

std::vector<Finding> run_checks(const Model& model, const Policy& policy) {
  std::vector<Finding> out;
  check_waivers(model, &out);
  check_hot_paths(model, policy, &out);
  check_lock_order(model, policy, &out);
  check_relaxed(model, policy, &out);
  check_trace_stages(model, policy, &out);
  check_trace_pairing(model, policy, &out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.rule == b.rule && a.message == b.message;
                        }),
            out.end());
  return out;
}

std::vector<std::string> hot_functions(const Model& model) {
  std::vector<std::string> out;
  for (const FuncDef& fn : model.funcs) {
    if (fn.hot) out.push_back(fn.qual_name);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace dpulint
