// vn2-lint implementation (v2). See vn2_lint.hpp for the contract and
// DESIGN.md for the rule catalogue. The engine is layered:
//
//   tools/lint/lexer.cpp  — one scan per file: token stream + blanked
//                           line view + suppression sets
//   tools/lint/scope.cpp  — bracket matching, function/lambda/loop
//                           extraction, header declaration collection
//   this file             — the rules, the tree walk, and the CLI
//
// The eleven v1 line rules still match against the blanked line view
// (which the lexer reproduces byte-for-byte), so their findings are
// bit-identical to v1; the four v2 semantic rules
// (unchecked-public-entry, lock-in-parallel-body, alloc-in-kernel,
// throw-across-parallel) work on the token stream and the scope facts.
// Everything is deliberately std-only so the checker builds in seconds
// on any toolchain and can gate CI without pulling in a compiler
// frontend.
#include "vn2_lint.hpp"

#include "lint/lexer.hpp"
#include "lint/scope.hpp"

// GCC attributes -Wmaybe-uninitialized false positives to <functional>
// internals when std::regex is instantiated under -fsanitize=undefined
// (GCC PR105562), so silence that one diagnostic for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

namespace vn2::lint {

namespace {

// ---------------------------------------------------------------------------
// Path scoping helpers. Paths are repo-relative with forward slashes.

bool starts_with(const std::string& path, const std::string& prefix) {
  return path.rfind(prefix, 0) == 0;
}

bool is_header(const std::string& path) {
  return path.ends_with(".hpp") || path.ends_with(".h");
}

bool in_numeric_kernels(const std::string& path) {
  return starts_with(path, "src/linalg/") || starts_with(path, "src/nmf/");
}

bool is_library_code(const std::string& path) {
  return starts_with(path, "src/");
}

// The sanctioned exception files: seeded RNG lives in linalg/random, the
// simulator owns the (virtual) clock, and the telemetry layer owns the
// one real (monotonic) clock used for span timing.
bool is_random_home(const std::string& path) {
  return starts_with(path, "src/linalg/random.");
}

bool is_clock_home(const std::string& path) {
  return starts_with(path, "src/wsn/simulator.") ||
         starts_with(path, "src/telemetry/");
}

// The parallel layer implements the capture/rethrow machinery and the
// pool's own locking, so the parallel-body rules never apply to it.
bool is_parallel_layer(const std::string& path) {
  return starts_with(path, "src/core/parallel.");
}

// ---------------------------------------------------------------------------
// Simple regex-per-line rules (v1-compatible).

struct PatternRule {
  const char* id;
  const char* message;
  std::regex pattern;
  bool (*applies)(const std::string& path);
};

const std::vector<PatternRule>& pattern_rules() {
  static const std::vector<PatternRule> rules = [] {
    std::vector<PatternRule> r;
    r.push_back({"nondeterminism-random",
                 "nondeterministic RNG in analysis code; use the seeded "
                 "generators in linalg/random",
                 std::regex(R"((\brand\s*\()|(\bsrand\s*\()|(std::random_device))"),
                 [](const std::string& p) { return !is_random_home(p); }});
    r.push_back({"nondeterminism-clock",
                 "wall-clock time in analysis code; results must not depend "
                 "on when they run (simulator time and telemetry's "
                 "monotonic_ns are the only clocks)",
                 std::regex(R"((std::chrono::\w*_clock::now)|(\btime\s*\()|(\bclock\s*\()|(\bgettimeofday\s*\())"),
                 [](const std::string& p) { return !is_clock_home(p); }});
    r.push_back({"float-in-numeric",
                 "float in a numeric kernel; linalg/nmf compute in double "
                 "only (bit-identical parallel results depend on it)",
                 std::regex(R"(\bfloat\b)"),
                 [](const std::string& p) { return in_numeric_kernels(p); }});
    r.push_back({"io-in-library",
                 "direct stdout/stderr IO in library code; route output "
                 "through the trace layer or return it to the caller",
                 std::regex(R"((std::cout)|(std::cerr)|(\bprintf\s*\()|(\bfprintf\s*\()|(\bputs\s*\())"),
                 [](const std::string& p) { return is_library_code(p) &&
                                                   !starts_with(p, "src/trace/"); }});
    r.push_back({"using-namespace-header",
                 "using namespace in a header leaks into every includer",
                 std::regex(R"(\busing\s+namespace\b)"),
                 [](const std::string& p) { return is_header(p); }});
    // naked-new needs a lookbehind (`= delete` is fine) that std::regex
    // lacks, so lint_content dispatches it to naked_new_matches instead of
    // this placeholder pattern.
    r.push_back({"naked-new",
                 "naked new/delete; use containers or smart pointers so "
                 "ownership is explicit and exception-safe",
                 std::regex(R"(\b(new|delete)\b)"),
                 [](const std::string&) { return true; }});
    // Sparsity shortcuts of the form `if (x == 0.0) continue;` silently
    // turn 0·NaN into 0 (IEEE says NaN), hide Inf, and make the kernel's
    // runtime depend on the data. Kernels must stream every entry; loops
    // whose inputs are provably finite may suppress with a justification.
    r.push_back({"zero-skip-kernel",
                 "data-dependent zero-skip in a numeric kernel; 0*NaN must "
                 "stay NaN and runtime must not depend on the data "
                 "(suppress only where inputs are provably finite)",
                 std::regex(R"(==\s*0(\.0*)?\s*\)\s*continue\b)"),
                 [](const std::string& p) { return in_numeric_kernels(p); }});
    // Default-constructed engines seed from a fixed constant, which reads
    // like determinism but silently correlates every such stream. The
    // identifier must not end in '_': members are seeded in a constructor
    // initializer the line can't see.
    r.push_back({"unseeded-mt19937",
                 "default-constructed std::mt19937; every engine must take "
                 "an explicit seed (see linalg/random)",
                 std::regex(R"(\bstd::mt19937(?:_64)?\s+(?:[A-Za-z_]\w*[A-Za-z0-9]|[A-Za-z])\s*(?:;|\{\s*\}|\(\s*\)))"),
                 [](const std::string& p) { return !is_random_home(p); }});
    return r;
  }();
  return rules;
}

// std::regex has no lookbehind; handle the `= delete` / `delete;` special
// cases by hand instead of in the pattern above.
bool naked_new_matches(const std::string& code, std::size_t& pos) {
  static const std::regex kNewDelete(R"(\b(new|delete)\b)");
  auto begin = std::sregex_iterator(code.begin(), code.end(), kNewDelete);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::smatch& m = *it;
    const std::string word = m[1].str();
    const std::size_t at = static_cast<std::size_t>(m.position(1));
    if (word == "delete") {
      // `= delete` (deleted special member) is fine; so is `= delete;`.
      std::size_t q = at;
      while (q > 0 && std::isspace(static_cast<unsigned char>(code[q - 1])))
        --q;
      if (q > 0 && code[q - 1] == '=') continue;
    }
    pos = at;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Header hygiene: every header needs `#pragma once` (house style) or a
// classic include guard.

void check_include_guard(const std::string& path, const TokenStream& src,
                         std::vector<Finding>& findings) {
  if (!is_header(path)) return;
  bool guarded = false;
  for (std::size_t i = 0; i < src.lines.size() && !guarded; ++i) {
    const std::string& l = src.lines[i];
    if (l.find("#pragma once") != std::string::npos) guarded = true;
    if (l.find("#ifndef") != std::string::npos &&
        i + 1 < src.lines.size() &&
        src.lines[i + 1].find("#define") != std::string::npos)
      guarded = true;
  }
  if (!guarded)
    findings.push_back({path, 1, "include-guard",
                        "header lacks #pragma once or an include guard"});
}

// ---------------------------------------------------------------------------
// parallel_for capture hygiene.
//
// The determinism promise of the parallel layer is "write only to
// index-owned slots". A write to a bare `&`-captured local from inside a
// parallel_for body is almost always a data race, so we flag it. The
// heuristic is textual: inside each inline lambda passed to parallel_for,
// flag `x = ...`, `x op= ...`, `++x` / `x++` where `x` is a plain
// identifier (no subscript/member/call syntax, which index-owned writes
// use) that is neither declared inside the body nor the loop parameter.

const std::set<std::string>& cpp_keywords() {
  static const std::set<std::string> kw = {
      "if", "else", "for", "while", "do", "switch", "case", "return",
      "break", "continue", "auto", "const", "constexpr", "static", "double",
      "float", "int", "bool", "char", "long", "unsigned", "signed", "void",
      "sizeof", "true", "false", "new", "delete", "this", "using", "typedef"};
  return kw;
}

/// Finds the matching close brace/paren/bracket for the opener at `open`.
std::size_t find_balanced(const std::string& text, std::size_t open,
                          char open_ch, char close_ch) {
  std::size_t depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == open_ch) ++depth;
    if (text[i] == close_ch && --depth == 0) return i;
  }
  return std::string::npos;
}

struct LambdaInfo {
  std::string captures;        ///< text inside [ ]
  std::string params;          ///< text inside ( )
  std::string body;            ///< text inside { }
  std::size_t body_start_line; ///< 1-based line of the opening brace
};

/// Identifiers declared anywhere in the body (type-name preceded writes,
/// loop variables, reference bindings). Over-collecting is safe — it only
/// makes the rule quieter.
std::set<std::string> declared_names(const std::string& body) {
  std::set<std::string> names;
  static const std::regex kDecl(
      R"(([A-Za-z_][\w:<>]*[\s&*]+|auto[\s&*]+)([A-Za-z_]\w*)\s*(=|;|\{|:))");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kDecl);
       it != std::sregex_iterator(); ++it)
    names.insert((*it)[2].str());
  return names;
}

std::set<std::string> param_names(const std::string& params) {
  std::set<std::string> names;
  static const std::regex kParam(R"(([A-Za-z_]\w*)\s*(,|$))");
  for (auto it = std::sregex_iterator(params.begin(), params.end(), kParam);
       it != std::sregex_iterator(); ++it)
    names.insert((*it)[1].str());
  return names;
}

void check_lambda_writes(const std::string& path, const LambdaInfo& lambda,
                         std::vector<Finding>& findings) {
  if (lambda.captures.find('&') == std::string::npos) return;

  // Explicit by-reference capture names ([&x, y] style); empty for [&].
  std::set<std::string> by_ref;
  bool blanket = false;
  {
    static const std::regex kCap(R"(&\s*([A-Za-z_]\w*)?)");
    for (auto it = std::sregex_iterator(lambda.captures.begin(),
                                        lambda.captures.end(), kCap);
         it != std::sregex_iterator(); ++it) {
      if ((*it)[1].matched)
        by_ref.insert((*it)[1].str());
      else
        blanket = true;
    }
  }

  const std::set<std::string> declared = declared_names(lambda.body);
  const std::set<std::string> params = param_names(lambda.params);

  // `x =` (not ==/<=/...), `x op=`, `++x`, `x++` on a bare identifier.
  static const std::regex kWrite(
      R"((\+\+|--)\s*([A-Za-z_]\w*)|([A-Za-z_]\w*)\s*(\+\+|--|(?:[+\-*/%|&^]|<<|>>)?=(?![=])))");
  std::size_t line = lambda.body_start_line;
  std::istringstream stream(lambda.body);
  std::string body_line;
  while (std::getline(stream, body_line)) {
    for (auto it = std::sregex_iterator(body_line.begin(), body_line.end(),
                                        kWrite);
         it != std::sregex_iterator(); ++it) {
      const std::smatch& m = *it;
      const bool prefix = m[2].matched;
      const std::string name = prefix ? m[2].str() : m[3].str();
      if (!prefix) {
        // Reject comparisons (== already excluded) and `<= >=` matches of
        // the form `x <... =`: the op group guarantees an assignment or
        // increment, but `x ==` slips through as `x =` when the regex
        // starts mid-token; guard on the char after the match.
        const std::size_t after =
            static_cast<std::size_t>(m.position(0) + m.length(0));
        if (after < body_line.size() && body_line[after] == '=') continue;
        // Bare-identifier writes only: subscripts / members / calls write
        // through an index-owned slot or an object, which is the sanctioned
        // pattern (out[i] = ..., point.rank = ..., w(i, r) = ...).
        const std::size_t name_end =
            static_cast<std::size_t>(m.position(3) + m.length(3));
        std::size_t q = name_end;
        while (q < body_line.size() &&
               std::isspace(static_cast<unsigned char>(body_line[q])))
          ++q;
        if (q < body_line.size() && (body_line[q] == '[' ||
                                     body_line[q] == '(' ||
                                     body_line[q] == '.' ||
                                     (body_line[q] == '-' &&
                                      q + 1 < body_line.size() &&
                                      body_line[q + 1] == '>')))
          continue;
        // Declarations (`Type name = ...`): preceding token is part of a
        // type name.
        std::size_t p = static_cast<std::size_t>(m.position(3));
        while (p > 0 &&
               std::isspace(static_cast<unsigned char>(body_line[p - 1])))
          --p;
        if (p > 0) {
          const char before = body_line[p - 1];
          // Preceding type token => declaration; preceding '.'/'->' =>
          // member write through an object, which is the object's business.
          if (std::isalnum(static_cast<unsigned char>(before)) ||
              before == '_' || before == '>' || before == '*' ||
              before == '&' || before == ':' || before == '.')
            continue;
        }
      }
      if (cpp_keywords().count(name)) continue;
      if (declared.count(name) || params.count(name)) continue;
      if (!blanket && !by_ref.count(name)) continue;
      findings.push_back(
          {path, line, "parallel-capture",
           "write to '&'-captured local '" + name +
               "' inside a parallel_for body; writes must go to "
               "index-owned slots (or use a per-task local + reduction)"});
    }
    ++line;
  }
}

void check_parallel_captures(const std::string& path, const TokenStream& src,
                             std::vector<Finding>& findings) {
  // Work on the joined stripped text so lambdas spanning lines are seen.
  std::string joined;
  std::vector<std::size_t> line_of_offset;
  for (std::size_t i = 0; i < src.lines.size(); ++i) {
    for (std::size_t j = 0; j <= src.lines[i].size(); ++j)
      line_of_offset.push_back(i + 1);
    joined += src.lines[i];
    joined += '\n';
  }

  std::size_t search = 0;
  while ((search = joined.find("parallel_for", search)) != std::string::npos) {
    const std::size_t call_open = joined.find('(', search);
    search += 12;  // length of "parallel_for"
    if (call_open == std::string::npos) continue;
    const std::size_t call_close =
        find_balanced(joined, call_open, '(', ')');
    if (call_close == std::string::npos) continue;

    // Inline lambda argument, if any.
    const std::size_t cap_open = joined.find('[', call_open);
    if (cap_open == std::string::npos || cap_open > call_close) continue;
    const std::size_t cap_close = find_balanced(joined, cap_open, '[', ']');
    if (cap_close == std::string::npos) continue;
    LambdaInfo lambda;
    lambda.captures =
        joined.substr(cap_open + 1, cap_close - cap_open - 1);
    const std::size_t par_open = joined.find('(', cap_close);
    if (par_open != std::string::npos && par_open < call_close) {
      const std::size_t par_close =
          find_balanced(joined, par_open, '(', ')');
      if (par_close != std::string::npos)
        lambda.params = joined.substr(par_open + 1, par_close - par_open - 1);
    }
    const std::size_t body_open = joined.find('{', cap_close);
    if (body_open == std::string::npos) continue;
    const std::size_t body_close =
        find_balanced(joined, body_open, '{', '}');
    if (body_close == std::string::npos) continue;
    lambda.body = joined.substr(body_open + 1, body_close - body_open - 1);
    lambda.body_start_line = line_of_offset[std::min(
        body_open, line_of_offset.size() - 1)];
    check_lambda_writes(path, lambda, findings);
  }
}

// ---------------------------------------------------------------------------
// Threading inventory: DESIGN.md enumerates every file sanctioned to call
// parallel_for, so a new call site forces a (reviewed) doc update. The
// parallel layer itself is exempt — it defines the function.

void check_parallel_inventory(const std::string& path, const TokenStream& src,
                              const LintOptions& options,
                              std::vector<Finding>& findings) {
  if (!options.threading_inventory) return;
  if (is_parallel_layer(path)) return;
  if (options.threading_inventory->count(path)) return;
  static const std::regex kCall(R"(\bparallel_for\s*\()");
  for (std::size_t i = 0; i < src.lines.size(); ++i)
    if (std::regex_search(src.lines[i], kCall))
      findings.push_back(
          {path, i + 1, "parallel-inventory",
           "parallel_for call site not listed in DESIGN.md's threading "
           "inventory; add the file there (and justify the parallelism)"});
}

// ---------------------------------------------------------------------------
// v2 semantic rules (token/scope based).

/// unchecked-public-entry: a definition of a function the public headers
/// declare must execute a contract check (VN2_CHECK / VN2_REQUIRE /
/// VN2_ASSERT) before the first use of any parameter — the "validate at
/// the boundary" discipline DESIGN.md promises for the API surface.
void check_unchecked_public_entry(const std::string& path,
                                  const TokenStream& src,
                                  const BracketMap& brackets,
                                  const LintOptions& options,
                                  std::vector<Finding>& findings) {
  if (!options.public_api) return;
  if (!is_library_code(path) || is_header(path)) return;
  static const std::set<std::string> kContracts = {
      "VN2_CHECK", "VN2_REQUIRE", "VN2_ASSERT"};
  // A use inside an `if (...)` whose guarded statement throws or returns
  // is itself boundary validation (the hand-rolled precondition idiom),
  // and satisfies the rule just like a contract macro does.
  const auto guard_clause_validates = [&](const std::vector<std::size_t>&
                                              open_parens) {
    for (auto it = open_parens.rbegin(); it != open_parens.rend(); ++it) {
      std::size_t q = *it;
      // Previous significant token before the '('.
      while (q > 0 && src.tokens[q - 1].preprocessor) --q;
      if (q == 0 || !src.tokens[q - 1].ident("if")) continue;
      std::size_t after = brackets.match(*it);
      if (after >= src.tokens.size()) return false;
      ++after;
      while (after < src.tokens.size() &&
             (src.tokens[after].preprocessor || src.tokens[after].is("{")))
        ++after;
      if (after >= src.tokens.size()) return false;
      const Token& head = src.tokens[after];
      return head.ident("throw") || head.ident("return") ||
             kContracts.count(head.text) > 0;
    }
    return false;
  };

  // Only *risky* uses demand a prior check: a parameter consumed in an
  // index or address computation (subscripts, pointer/index arithmetic).
  // Reading a parameter's value whole — forwarding it, returning it,
  // calling a member on it, comparing it — carries no precondition of
  // its own, and contracting those would be exactly the tautology
  // DESIGN.md bans.
  const auto is_arith = [](const Token& t) {
    return t.kind == TokenKind::kPunct &&
           (t.is("+") || t.is("-") || t.is("*") || t.is("/") || t.is("%"));
  };

  for (const FunctionDef& fn : extract_functions(src, brackets)) {
    if (!options.public_api->count(fn.name) || fn.params.empty()) continue;
    // A noexcept function promises totality instead of throwing on bad
    // input — contract macros (which throw) are the wrong tool there, so
    // the boundary-validation discipline does not apply.
    bool is_noexcept = false;
    for (std::size_t k = fn.body.begin >= 8 ? fn.body.begin - 8 : 0;
         k < fn.body.begin; ++k)
      if (src.tokens[k].ident("noexcept")) is_noexcept = true;
    if (is_noexcept) continue;
    const std::set<std::string> params(fn.params.begin(), fn.params.end());
    std::set<std::string> validated;        // params a guard already vetted
    std::vector<std::size_t> open_parens;   // enclosing '(' token indices
    std::vector<bool> bracket_is_subscript; // '[' stack: postfix subscript?
    std::size_t subscript_depth = 0;        // enclosing postfix '[' groups
    bool in_throw = false;                  // inside a throw statement
    bool flagged = false;
    for (std::size_t i = fn.body.begin; i < fn.body.end && !flagged; ++i) {
      const Token& t = src.tokens[i];
      if (t.preprocessor) continue;
      if (t.kind == TokenKind::kPunct) {
        if (t.is("(")) open_parens.push_back(i);
        if (t.is(")") && !open_parens.empty()) open_parens.pop_back();
        if (t.is("[")) {
          // A '[' is a subscript only in postfix position (after an
          // identifier, ')' or ']'); anything else — notably a lambda
          // capture list — indexes nothing.
          const Token* prev = i > fn.body.begin ? &src.tokens[i - 1] : nullptr;
          const bool postfix =
              prev && ((prev->kind == TokenKind::kIdentifier &&
                        !is_keyword(prev->text)) ||
                       prev->is(")") || prev->is("]"));
          bracket_is_subscript.push_back(postfix);
          if (postfix) ++subscript_depth;
        }
        if (t.is("]") && !bracket_is_subscript.empty()) {
          if (bracket_is_subscript.back() && subscript_depth > 0)
            --subscript_depth;
          bracket_is_subscript.pop_back();
        }
        if (t.is(";")) in_throw = false;
        continue;
      }
      if (t.kind != TokenKind::kIdentifier) continue;
      if (kContracts.count(t.text)) break;  // checked before any use
      // Calling a validation helper (require, check_index, …) is the
      // project's other precondition idiom; credit it like a macro.
      if (i + 1 < fn.body.end && src.tokens[i + 1].is("(")) {
        std::string low;
        for (char c : t.text)
          low.push_back(static_cast<char>(
              std::tolower(static_cast<unsigned char>(c))));
        if (low.find("check") != std::string::npos ||
            low.find("require") != std::string::npos ||
            low.find("assert") != std::string::npos ||
            low.find("validate") != std::string::npos)
          break;
      }
      if (t.ident("throw")) in_throw = true;
      if (!params.count(t.text)) continue;
      // Qualified-name tails and member accesses are not parameter uses.
      if (i > fn.body.begin) {
        const Token& prev = src.tokens[i - 1];
        if (prev.is("::") || prev.is(".") || prev.is("->")) continue;
      }
      // A use inside a validating guard's condition vets the parameter —
      // every later use of it is downstream of the check.
      if (guard_clause_validates(open_parens)) {
        validated.insert(t.text);
        continue;
      }
      // Uses inside a throw statement are error reporting, not risk.
      if (in_throw || validated.count(t.text)) continue;
      // `p.member()` / `p->member`: the parameter itself is read whole;
      // any adjacent operator applies to the member's result, not to p.
      if (i + 1 < fn.body.end &&
          (src.tokens[i + 1].is(".") || src.tokens[i + 1].is("->")))
        continue;
      const bool next_subscripts =
          i + 1 < fn.body.end && src.tokens[i + 1].is("[");
      const bool in_arith =
          (i > fn.body.begin && is_arith(src.tokens[i - 1])) ||
          (i + 1 < fn.body.end && is_arith(src.tokens[i + 1]));
      if (!next_subscripts && subscript_depth == 0 && !in_arith)
        continue;  // benign whole-value use; keep scanning
      findings.push_back(
          {path, t.line, "unchecked-public-entry",
           "public entry '" + fn.name + "' uses parameter '" + t.text +
               "' in an index/arithmetic position before any "
               "VN2_CHECK/VN2_REQUIRE; validate inputs at the boundary "
               "first (or suppress with a justification)"});
      flagged = true;
    }
  }
}

/// lock-in-parallel-body: no mutex/lock acquisition inside a parallel_for
/// lambda — the deterministic threading model forbids cross-task
/// synchronization (write to index-owned slots, reduce after the join).
void check_lock_in_parallel(const std::string& path, const TokenStream& src,
                            const BracketMap& brackets,
                            std::vector<Finding>& findings) {
  if (is_parallel_layer(path)) return;
  static const std::set<std::string> kLockTypes = {
      "mutex", "timed_mutex", "recursive_mutex", "shared_mutex",
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
  for (const ParallelLambda& lambda : find_parallel_lambdas(src, brackets)) {
    std::size_t last_line = 0;  // one acquisition, one finding per line
    for (std::size_t i = lambda.body.begin; i < lambda.body.end; ++i) {
      const Token& t = src.tokens[i];
      if (t.preprocessor || t.kind != TokenKind::kIdentifier) continue;
      const bool member_lock =
          (t.is("lock") || t.is("try_lock") || t.is("lock_shared")) &&
          i > lambda.body.begin &&
          (src.tokens[i - 1].is(".") || src.tokens[i - 1].is("->"));
      if (!kLockTypes.count(t.text) && !member_lock) continue;
      if (t.line == last_line) continue;
      last_line = t.line;
      findings.push_back(
          {path, t.line, "lock-in-parallel-body",
           "mutex/lock acquisition ('" + t.text +
               "') inside a parallel_for body; the deterministic "
               "threading model forbids cross-task synchronization — "
               "write to index-owned slots and reduce after the join"});
    }
  }
}

/// alloc-in-kernel: the linalg kernel loops must be allocation-free —
/// no new, no container growth, no Matrix temporaries. Buffers belong in
/// the caller's workspace (see nmf::Workspace / linalg::NnlsWorkspace).
/// Applies to every kernel TU: the scalar backends (kernels.cpp) and the
/// simd backend (kernels_simd.cpp).
void check_alloc_in_kernel(const std::string& path, const TokenStream& src,
                           const BracketMap& brackets,
                           std::vector<Finding>& findings) {
  if (path != "src/linalg/kernels.cpp" &&
      path != "src/linalg/kernels_simd.cpp")
    return;
  static const std::set<std::string> kGrowth = {
      "push_back", "emplace_back", "resize", "reserve", "insert"};
  std::set<std::size_t> flagged;  // token indices, deduped across nests
  for (const TokenRange& loop :
       find_loop_bodies(src, brackets, {0, src.tokens.size()})) {
    for (std::size_t i = loop.begin; i < loop.end && i < src.tokens.size();
         ++i) {
      const Token& t = src.tokens[i];
      if (t.preprocessor || t.kind != TokenKind::kIdentifier) continue;
      const bool is_new = t.is("new");
      const bool is_growth =
          kGrowth.count(t.text) && i > loop.begin &&
          (src.tokens[i - 1].is(".") || src.tokens[i - 1].is("->"));
      const bool is_matrix_ctor =
          t.is("Matrix") && i + 1 < loop.end &&
          (src.tokens[i + 1].kind == TokenKind::kIdentifier ||
           src.tokens[i + 1].is("(") || src.tokens[i + 1].is("{"));
      const bool is_vector_decl =
          t.is("vector") && i > loop.begin && src.tokens[i - 1].is("::");
      if (!(is_new || is_growth || is_matrix_ctor || is_vector_decl))
        continue;
      if (!flagged.insert(i).second) continue;
      findings.push_back(
          {path, t.line, "alloc-in-kernel",
           "allocation ('" + t.text +
               "') inside a kernel loop body; hot kernels must be "
               "allocation-free — hoist buffers into the caller's "
               "workspace"});
    }
  }
}

/// throw-across-parallel: a raw `throw` inside a parallel_for body
/// bypasses the documented exception-capture idiom. Errors cross the
/// task boundary either through a contract macro (parallel_for captures
/// and rethrows the first exception) or an index-owned error slot.
void check_throw_across_parallel(const std::string& path,
                                 const TokenStream& src,
                                 const BracketMap& brackets,
                                 std::vector<Finding>& findings) {
  if (is_parallel_layer(path)) return;
  for (const ParallelLambda& lambda : find_parallel_lambdas(src, brackets)) {
    for (std::size_t i = lambda.body.begin; i < lambda.body.end; ++i) {
      const Token& t = src.tokens[i];
      if (t.preprocessor || !t.ident("throw")) continue;
      findings.push_back(
          {path, t.line, "throw-across-parallel",
           "raw throw inside a parallel_for body; route errors through "
           "VN2_CHECK/VN2_REQUIRE (the capture idiom rethrows the first "
           "contract violation on the caller) or an index-owned error "
           "slot"});
    }
  }
}

void apply_suppressions(const TokenStream& src,
                        std::vector<Finding>& findings) {
  findings.erase(
      std::remove_if(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       auto it = src.allowed.find(f.line);
                       return it != src.allowed.end() &&
                              it->second.count(f.rule) > 0;
                     }),
      findings.end());
}

}  // namespace

std::vector<std::string> rule_ids() {
  std::vector<std::string> ids;
  for (const PatternRule& rule : pattern_rules()) ids.emplace_back(rule.id);
  for (const char* id :
       {"include-guard", "parallel-capture", "parallel-inventory",
        "unchecked-public-entry", "lock-in-parallel-body", "alloc-in-kernel",
        "throw-across-parallel"})
    ids.emplace_back(id);
  return ids;
}

std::optional<std::set<std::string>> parse_threading_inventory(
    const std::filesystem::path& design_md) {
  std::ifstream in(design_md, std::ios::binary);
  if (!in) return std::nullopt;
  std::set<std::string> inventory;
  bool in_section = false;
  bool found_section = false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') {
      if (line.find("Threading inventory") != std::string::npos) {
        in_section = true;
        found_section = true;
      } else {
        in_section = false;
      }
      continue;
    }
    if (!in_section) continue;
    std::size_t open = 0;
    while ((open = line.find('`', open)) != std::string::npos) {
      const std::size_t close = line.find('`', open + 1);
      if (close == std::string::npos) break;
      inventory.insert(line.substr(open + 1, close - open - 1));
      open = close + 1;
    }
  }
  if (!found_section) return std::nullopt;
  return inventory;
}

std::set<std::string> collect_public_api(const std::filesystem::path& root) {
  std::set<std::string> api;
  const std::filesystem::path base = root / "src";
  if (!std::filesystem::exists(base)) return api;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(base)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".h") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in) continue;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const TokenStream ts = lex(buffer.str());
    const BracketMap brackets(ts.tokens);
    const std::set<std::string> declared =
        collect_declared_functions(ts, brackets);
    api.insert(declared.begin(), declared.end());
  }
  return api;
}

std::vector<Finding> lint_content(const std::string& path,
                                  const std::string& content,
                                  const LintOptions& options) {
  const TokenStream src = lex(content);
  const BracketMap brackets(src.tokens);
  std::vector<Finding> findings;

  for (const PatternRule& rule : pattern_rules()) {
    if (!rule.applies(path)) continue;
    const bool is_naked_new = std::string(rule.id) == "naked-new";
    for (std::size_t i = 0; i < src.lines.size(); ++i) {
      bool hit = false;
      if (is_naked_new) {
        std::size_t pos = 0;
        hit = naked_new_matches(src.lines[i], pos);
      } else {
        hit = std::regex_search(src.lines[i], rule.pattern);
      }
      if (hit) findings.push_back({path, i + 1, rule.id, rule.message});
    }
  }

  check_include_guard(path, src, findings);
  check_parallel_captures(path, src, findings);
  check_parallel_inventory(path, src, options, findings);
  check_unchecked_public_entry(path, src, brackets, options, findings);
  check_lock_in_parallel(path, src, brackets, findings);
  check_alloc_in_kernel(path, src, brackets, findings);
  check_throw_across_parallel(path, src, brackets, findings);
  apply_suppressions(src, findings);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

std::vector<Finding> lint_content(const std::string& path,
                                  const std::string& content) {
  return lint_content(path, content, LintOptions{});
}

std::vector<Finding> lint_file(const std::filesystem::path& file,
                               const std::string& relative,
                               const LintOptions& options) {
  std::ifstream in(file, std::ios::binary);
  if (!in)
    return {{relative, 0, "io-error", "cannot read file"}};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return lint_content(relative, buffer.str(), options);
}

std::vector<Finding> lint_tree(const std::filesystem::path& root,
                               const std::vector<std::string>& dirs) {
  static const std::vector<std::string> kDefaultDirs = {"src", "tools",
                                                        "bench", "examples"};
  const std::vector<std::string>& walk = dirs.empty() ? kDefaultDirs : dirs;

  LintOptions options;
  options.threading_inventory = parse_threading_inventory(root / "DESIGN.md");
  options.public_api = collect_public_api(root);

  std::vector<Finding> findings;
  for (const std::string& dir : walk) {
    const std::filesystem::path base = root / dir;
    if (!std::filesystem::exists(base)) continue;
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
          ext == ".h")
        files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      std::string relative =
          std::filesystem::relative(file, root).generic_string();
      auto file_findings = lint_file(file, relative, options);
      findings.insert(findings.end(), file_findings.begin(),
                      file_findings.end());
    }
  }
  return findings;
}

namespace {

int usage(std::ostream& out) {
  out << "usage: vn2_lint [--root DIR] [--list-rules] [DIR...]\n"
         "Lints src/, tools/, bench/, examples/ under --root\n"
         "(default: current directory) or the listed DIRs.\n"
         "Exit codes: 0 clean, 1 findings, 2 usage/IO error.\n";
  return 2;
}

void print_finding(const Finding& f) {
  std::cout << f.file << ':' << f.line << ": [" << f.rule << "] "
            << f.message << '\n';
}

}  // namespace

int lint_main(int argc, const char* const* argv) {
  std::filesystem::path root = std::filesystem::current_path();
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--list-rules") {
      for (const std::string& id : rule_ids()) std::cout << id << '\n';
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "vn2_lint: unknown option " << arg << '\n';
      return usage(std::cerr);
    } else {
      dirs.push_back(arg);
    }
  }
  if (!std::filesystem::exists(root)) {
    std::cerr << "vn2_lint: --root " << root.string()
              << " does not exist\n";
    return 2;
  }

  const auto findings = lint_tree(root, dirs);
  for (const Finding& f : findings) print_finding(f);
  if (std::any_of(findings.begin(), findings.end(),
                  [](const Finding& f) { return f.rule == "io-error"; }))
    return 2;
  if (findings.empty()) {
    std::cout << "vn2-lint: clean\n";
    return 0;
  }
  std::cout << "vn2-lint: " << findings.size() << " finding"
            << (findings.size() == 1 ? "" : "s") << '\n';
  return 1;
}

}  // namespace vn2::lint

#ifndef VN2_LINT_NO_MAIN

int main(int argc, char** argv) { return vn2::lint::lint_main(argc, argv); }

#endif  // VN2_LINT_NO_MAIN
