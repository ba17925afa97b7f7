// ldr_lint — the repo's custom invariant linter (PR 8).
//
// The repo carries hand-maintained conventions that no compiler checks:
// failpoint sites must stay in sync with the documented registry, every
// ctest registration needs a TIMEOUT, and the LP inner-loop files must stay
// allocation-free and tolerance-disciplined. ldr_lint parses those
// conventions straight out of the tree (plain text scanning, no compiler
// dependency, runs in well under a second) and fails the build on violation.
//
// Usage:
//   ldr_lint [repo-root]   lint the tree (default root: .); exit 1 on any
//                          violation, printing file:line: [rule] message
//   ldr_lint --self-test   run every rule against built-in fixture snippets
//                          and fail unless each rule (a) fires on its
//                          violating fixture and (b) stays quiet on its
//                          clean fixture
//   ldr_lint --list        print the rule table (id + rationale) and exit
//
// Rules (see ROADMAP.md "Analyzer matrix" for the rationale table):
//   ldr-failpoint-registry  every LDR_FAILPOINT("site") string in src/
//                           appears in the "Known sites" block of
//                           src/util/failpoint.h, and vice versa
//   ldr-ctest-timeout       every add_test() in CMakeLists.txt is followed
//                           by a TIMEOUT property registration
//   ldr-lp-alloc            no naked new/malloc/calloc/realloc in src/lp/
//                           (the inner loop is allocation-free by contract;
//                           containers allocate through their allocators)
//   ldr-float-eq            no tolerance-free ==/!= against floating-point
//                           literals in src/lp/ (exact-sparsity tests on
//                           stored values carry a reasoned NOLINT)
//   ldr-nolint-reason       every NOLINT in src/ names a rule and carries a
//                           ": reason" string — bare suppressions rejected
//   ldr-getenv              the library reads the environment only in
//                           src/util/thread_pool.cc (LDR_THREADS, a worker
//                           count); no other file in src/ calls getenv
//
// Suppression grammar (checked by ldr-nolint-reason itself):
//   ... // NOLINT(ldr-float-eq): exact sparsity test, not a tolerance

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  size_t line = 0;  // 1-based; 0 = whole-file finding
  std::string rule;
  std::string message;
};

// A lintable tree: path -> content. The real run loads files from disk; the
// self-test injects synthetic trees, so every rule is testable against a
// fixture without touching the filesystem.
using Tree = std::map<std::string, std::string>;

std::vector<Finding> g_findings;

void Report(const std::string& file, size_t line, const std::string& rule,
            const std::string& message) {
  g_findings.push_back({file, line, rule, message});
}

// --- text utilities ---------------------------------------------------------

// Blanks out // and /* */ comments and string/char literals, preserving the
// line structure (every replaced character becomes a space) so reported line
// numbers match the original file. NOLINT markers live in comments, so rules
// that honor suppressions re-read the original line.
std::string StripCommentsAndStrings(const std::string& in) {
  std::string out = in;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State st = State::kCode;
  for (size_t i = 0; i < in.size(); ++i) {
    char c = in[i];
    char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '/' && next == '/') {
          st = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          st = State::kString;
        } else if (c == '\'') {
          st = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          st = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < in.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < in.size() && next != '\n') {
            out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          st = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::stringstream ss(s);
  std::string line;
  while (std::getline(ss, line)) lines.push_back(line);
  return lines;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// True when `word` occurs in `s` with no identifier character on either side.
bool ContainsWord(const std::string& s, const std::string& word) {
  size_t pos = 0;
  while ((pos = s.find(word, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(s[pos - 1]);
    size_t end = pos + word.size();
    bool right_ok = end >= s.size() || !IsIdentChar(s[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

// A line suppresses `rule` iff it carries NOLINT(<list containing rule>)
// followed by a ": reason". Bare or reasonless NOLINTs never suppress (and
// ldr-nolint-reason flags them).
bool LineSuppresses(const std::string& original_line, const std::string& rule) {
  size_t pos = original_line.find("NOLINT(");
  if (pos == std::string::npos) return false;
  size_t open = pos + 6;  // at '('
  size_t close = original_line.find(')', open);
  if (close == std::string::npos) return false;
  std::string list = original_line.substr(open + 1, close - open - 1);
  bool named = false;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    // trim
    item.erase(0, item.find_first_not_of(" \t"));
    item.erase(item.find_last_not_of(" \t") + 1);
    if (item == rule || item == "*") named = true;
  }
  if (!named) return false;
  // Require ": <nonempty reason>" after the closing paren.
  size_t colon = original_line.find_first_not_of(" \t", close + 1);
  if (colon == std::string::npos || original_line[colon] != ':') return false;
  size_t reason = original_line.find_first_not_of(" \t", colon + 1);
  return reason != std::string::npos;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// --- rule 1: ldr-failpoint-registry ----------------------------------------

// Documented sites: lines of the form `//   site.name   description` between
// the "Known sites" marker and the end of the leading comment block in
// src/util/failpoint.h.
std::set<std::string> DocumentedFailpointSites(const std::string& header) {
  std::set<std::string> sites;
  bool in_block = false;
  for (const std::string& line : SplitLines(header)) {
    if (line.find("Known sites") != std::string::npos) {
      in_block = true;
      continue;
    }
    if (!in_block) continue;
    if (!StartsWith(line, "//")) break;  // comment block ended
    // Expect `//   <site> ...` where <site> is dotted lower-case.
    size_t pos = line.find_first_not_of("/ \t");
    if (pos == std::string::npos) continue;
    size_t end = pos;
    while (end < line.size() &&
           (std::islower(static_cast<unsigned char>(line[end])) ||
            line[end] == '.' || line[end] == '_')) {
      ++end;
    }
    std::string site = line.substr(pos, end - pos);
    if (site.find('.') != std::string::npos) sites.insert(site);
  }
  return sites;
}

// Used sites: every string literal inside LDR_FAILPOINT("...") in src/ code
// (scanned on the raw content — the literal is what we want — but only at
// positions that survive comment stripping, so commented-out code and the
// header's own documentation do not count as uses).
std::map<std::string, std::pair<std::string, size_t>> UsedFailpointSites(
    const Tree& tree) {
  std::map<std::string, std::pair<std::string, size_t>> uses;
  for (const auto& [path, content] : tree) {
    if (!StartsWith(path, "src/")) continue;
    if (!EndsWith(path, ".cc")) continue;
    std::string code = StripCommentsAndStrings(content);
    size_t pos = 0;
    while ((pos = code.find("LDR_FAILPOINT", pos)) != std::string::npos) {
      size_t open = code.find('(', pos);
      pos += std::strlen("LDR_FAILPOINT");
      if (open == std::string::npos) continue;
      size_t q1 = content.find('"', open);
      if (q1 == std::string::npos) continue;
      size_t q2 = content.find('"', q1 + 1);
      if (q2 == std::string::npos) continue;
      std::string site = content.substr(q1 + 1, q2 - q1 - 1);
      size_t line = 1 + static_cast<size_t>(std::count(
                            content.begin(),
                            content.begin() + static_cast<long>(q1), '\n'));
      uses.emplace(site, std::make_pair(path, line));
    }
  }
  return uses;
}

void CheckFailpointRegistry(const Tree& tree) {
  auto it = tree.find("src/util/failpoint.h");
  if (it == tree.end()) {
    Report("src/util/failpoint.h", 0, "ldr-failpoint-registry",
           "registry header missing from tree");
    return;
  }
  std::set<std::string> documented = DocumentedFailpointSites(it->second);
  if (documented.empty()) {
    Report("src/util/failpoint.h", 0, "ldr-failpoint-registry",
           "no documented sites found under the 'Known sites' block");
    return;
  }
  auto used = UsedFailpointSites(tree);
  for (const auto& [site, where] : used) {
    if (documented.count(site) == 0) {
      Report(where.first, where.second, "ldr-failpoint-registry",
             "failpoint site \"" + site +
                 "\" is not documented in the Known sites block of "
                 "src/util/failpoint.h");
    }
  }
  for (const std::string& site : documented) {
    if (used.count(site) == 0) {
      Report("src/util/failpoint.h", 0, "ldr-failpoint-registry",
             "documented failpoint site \"" + site +
                 "\" has no LDR_FAILPOINT use in src/");
    }
  }
}

// --- rule 2: ldr-ctest-timeout ---------------------------------------------

void CheckCtestTimeouts(const Tree& tree) {
  auto it = tree.find("CMakeLists.txt");
  if (it == tree.end()) {
    Report("CMakeLists.txt", 0, "ldr-ctest-timeout",
           "CMakeLists.txt missing from tree");
    return;
  }
  std::vector<std::string> lines = SplitLines(it->second);
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    size_t pos = line.find("add_test");
    if (pos == std::string::npos) continue;
    // Skip comments.
    size_t hash = line.find('#');
    if (hash != std::string::npos && hash < pos) continue;
    // A TIMEOUT property must follow within the next few lines (the repo
    // convention pairs every add_test with set_tests_properties).
    bool has_timeout = false;
    for (size_t j = i; j < lines.size() && j < i + 6; ++j) {
      if (lines[j].find("TIMEOUT") != std::string::npos) {
        has_timeout = true;
        break;
      }
    }
    if (!has_timeout) {
      Report("CMakeLists.txt", i + 1, "ldr-ctest-timeout",
             "add_test registration has no TIMEOUT property within the next "
             "5 lines — a hung test would wedge CI instead of failing");
    }
  }
}

// --- rules 3+4: src/lp discipline ------------------------------------------

void CheckLpAllocationAndFloatEq(const Tree& tree) {
  for (const auto& [path, content] : tree) {
    if (!StartsWith(path, "src/lp/")) continue;
    std::string code = StripCommentsAndStrings(content);
    std::vector<std::string> code_lines = SplitLines(code);
    std::vector<std::string> raw_lines = SplitLines(content);
    for (size_t i = 0; i < code_lines.size(); ++i) {
      const std::string& cl = code_lines[i];
      const std::string& raw = i < raw_lines.size() ? raw_lines[i] : cl;

      // Rule 4: naked allocation. `new` as a word (operator new / new[] /
      // placement new all count — the LP core's contract is zero direct
      // allocation; its vectors allocate through their own members) and the
      // C allocators.
      bool alloc = ContainsWord(cl, "new") || ContainsWord(cl, "malloc") ||
                   ContainsWord(cl, "calloc") || ContainsWord(cl, "realloc");
      if (alloc && !LineSuppresses(raw, "ldr-lp-alloc")) {
        Report(path, i + 1, "ldr-lp-alloc",
               "naked allocation in the LP core (new/malloc family); the "
               "inner loop is allocation-free by contract — use a reused "
               "member buffer, or suppress with NOLINT(ldr-lp-alloc): "
               "reason");
      }

      // Rule 5: tolerance-free ==/!= against a floating literal.
      for (size_t p = 0; p + 1 < cl.size(); ++p) {
        if ((cl[p] != '=' && cl[p] != '!') || cl[p + 1] != '=') continue;
        if (p + 2 < cl.size() && cl[p + 2] == '=') continue;  // ===? no
        if (p > 0 && (cl[p - 1] == '=' || cl[p - 1] == '!' ||
                      cl[p - 1] == '<' || cl[p - 1] == '>')) {
          continue;
        }
        // Look at the token after and before the operator.
        size_t after = cl.find_first_not_of(" \t", p + 2);
        bool lit_after = false;
        if (after != std::string::npos) {
          size_t d = after;
          if (cl[d] == '-' || cl[d] == '+') ++d;
          size_t digits = d;
          while (d < cl.size() &&
                 std::isdigit(static_cast<unsigned char>(cl[d]))) {
            ++d;
          }
          lit_after = d < cl.size() && d > digits && cl[d] == '.';
        }
        size_t before = cl.find_last_not_of(" \t", p - 1);
        bool lit_before = false;
        if (before != std::string::npos && before > 0) {
          // ...digit(s) '.' digit(s) immediately left of the operator
          size_t d = before;
          while (d > 0 && std::isdigit(static_cast<unsigned char>(cl[d]))) {
            --d;
          }
          lit_before = cl[d] == '.' && d > 0 &&
                       std::isdigit(static_cast<unsigned char>(cl[d - 1]));
        }
        if ((lit_after || lit_before) &&
            !LineSuppresses(raw, "ldr-float-eq")) {
          Report(path, i + 1, "ldr-float-eq",
                 "exact ==/!= against a floating-point literal in the LP "
                 "core; compare against a tolerance, or suppress with "
                 "NOLINT(ldr-float-eq): reason");
          break;  // one finding per line
        }
      }
    }
  }
}

// --- rule 5: ldr-nolint-reason ---------------------------------------------

void CheckNolintReasons(const Tree& tree) {
  for (const auto& [path, content] : tree) {
    if (!StartsWith(path, "src/") && !StartsWith(path, "tools/") &&
        !StartsWith(path, "tests/") && !StartsWith(path, "bench/")) {
      continue;
    }
    // The linter's own source discusses the NOLINT grammar in comments,
    // strings, and fixtures; scanning it would flag its own documentation.
    if (path == "tools/ldr_lint.cc") continue;
    std::vector<std::string> lines = SplitLines(content);
    for (size_t i = 0; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      size_t pos = line.find("NOLINT");
      if (pos == std::string::npos) continue;
      // NOLINTNEXTLINE / NOLINTBEGIN are not part of the repo grammar.
      if (line.compare(pos, 7, "NOLINTN") == 0 ||
          line.compare(pos, 7, "NOLINTB") == 0 ||
          line.compare(pos, 7, "NOLINTE") == 0) {
        Report(path, i + 1, "ldr-nolint-reason",
               "only inline `NOLINT(rule): reason` suppressions are "
               "accepted (no NOLINTNEXTLINE/BEGIN/END)");
        continue;
      }
      bool ok = false;
      if (pos + 6 < line.size() && line[pos + 6] == '(') {
        size_t close = line.find(')', pos + 7);
        if (close != std::string::npos && close > pos + 7) {
          size_t colon = line.find_first_not_of(" \t", close + 1);
          if (colon != std::string::npos && line[colon] == ':' &&
              line.find_first_not_of(" \t", colon + 1) != std::string::npos) {
            ok = true;
          }
        }
      }
      if (!ok) {
        Report(path, i + 1, "ldr-nolint-reason",
               "bare NOLINT — suppressions must name a rule and a reason: "
               "`NOLINT(rule): why this is safe`");
      }
    }
  }
}

// --- rule 6: ldr-getenv ----------------------------------------------------

// The one file in src/ allowed to read the environment.
constexpr char kGetenvAllowed[] = "src/util/thread_pool.cc";

void CheckGetenv(const Tree& tree) {
  for (const auto& [path, content] : tree) {
    if (!StartsWith(path, "src/") || path == kGetenvAllowed) continue;
    std::vector<std::string> lines =
        SplitLines(StripCommentsAndStrings(content));
    for (size_t i = 0; i < lines.size(); ++i) {
      if (ContainsWord(lines[i], "getenv") ||
          ContainsWord(lines[i], "secure_getenv")) {
        Report(path, i + 1, "ldr-getenv",
               std::string("getenv in the library; only ") + kGetenvAllowed +
                   " reads the environment (LDR_THREADS) — pass the value "
                   "in from the bench or tool instead");
      }
    }
  }
}

// --- driver -----------------------------------------------------------------

void RunAllRules(const Tree& tree) {
  CheckFailpointRegistry(tree);
  CheckCtestTimeouts(tree);
  CheckLpAllocationAndFloatEq(tree);
  CheckNolintReasons(tree);
  CheckGetenv(tree);
}

Tree LoadTree(const fs::path& root) {
  Tree tree;
  static const std::vector<std::string> kDirs = {"src", "tests", "tools",
                                                 "bench"};
  auto load = [&](const fs::path& p, const std::string& rel) {
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    tree[rel] = ss.str();
  };
  for (const std::string& dir : kDirs) {
    fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      std::string ext = entry.path().extension().string();
      if (ext != ".cc" && ext != ".h" && ext != ".cpp") continue;
      load(entry.path(), fs::relative(entry.path(), root).generic_string());
    }
  }
  if (fs::exists(root / "CMakeLists.txt")) {
    load(root / "CMakeLists.txt", "CMakeLists.txt");
  }
  return tree;
}

// --- self-test fixtures -----------------------------------------------------
// One violating + one clean fixture per rule: the violating tree must fire
// exactly the rule under test; the clean twin must not. This is the "each
// rule ships with a snippet proving it fires" guarantee — if a rule's parser
// rots, the self-test fails in ctest.

struct Fixture {
  std::string rule;
  Tree bad;   // must produce >= 1 finding for `rule`
  Tree good;  // must produce 0 findings for `rule`
};

// Minimal registry header shared by fixtures.
const char kFixtureFailpointHeader[] =
    "// Known sites (grep LDR_FAILPOINT for ground truth):\n"
    "//   lp.iter_limit        Solve() reports kIterLimit\n"
    "#ifndef X\n";

std::vector<Fixture> SelfTestFixtures() {
  std::vector<Fixture> fixtures;

  // ldr-failpoint-registry: an undocumented use AND an unused documented
  // site both fire; the clean twin matches registry and uses exactly.
  {
    Fixture f;
    f.rule = "ldr-failpoint-registry";
    f.bad["src/util/failpoint.h"] = kFixtureFailpointHeader;
    f.bad["src/lp/lp.cc"] =
        "int F() { if (LDR_FAILPOINT(\"lp.rogue_site\")) return 1;\n"
        "  return 0; }\n";
    f.good["src/util/failpoint.h"] = kFixtureFailpointHeader;
    f.good["src/lp/lp.cc"] =
        "int F() { if (LDR_FAILPOINT(\"lp.iter_limit\")) return 1;\n"
        "  return 0; }\n";
    fixtures.push_back(std::move(f));
  }

  // ldr-ctest-timeout: a registration without a TIMEOUT property fires.
  {
    Fixture f;
    f.rule = "ldr-ctest-timeout";
    f.bad["CMakeLists.txt"] =
        "add_test(NAME foo COMMAND foo)\n"
        "# nothing about timeouts here\n";
    f.good["CMakeLists.txt"] =
        "add_test(NAME foo COMMAND foo)\n"
        "set_tests_properties(foo PROPERTIES TIMEOUT 600)\n";
    fixtures.push_back(std::move(f));
  }

  // ldr-lp-alloc: naked new in src/lp fires; reused members / reasoned
  // suppression stay quiet; `new` in a comment never counts.
  {
    Fixture f;
    f.rule = "ldr-lp-alloc";
    f.bad["src/lp/lp.cc"] = "void G() { double* p = new double[8]; }\n";
    f.good["src/lp/lp.cc"] =
        "// the new column rests nonbasic (comment-only 'new' is fine)\n"
        "void G() { scratch_.resize(8); }\n"
        "Solver::Solver() : impl_(new Impl()) {}  "
        "// NOLINT(ldr-lp-alloc): pimpl construction, not the inner loop\n";
    fixtures.push_back(std::move(f));
  }

  // ldr-float-eq: exact compare against a float literal fires; tolerance
  // compares and reasoned suppressions stay quiet.
  {
    Fixture f;
    f.rule = "ldr-float-eq";
    f.bad["src/lp/lp.cc"] =
        "bool H(double x) { return x == 1.5; }\n";
    f.good["src/lp/lp.cc"] =
        "bool H(double x) { return std::abs(x - 1.5) < 1e-9; }\n"
        "bool Z(double v) { return v != 0.0; }  "
        "// NOLINT(ldr-float-eq): exact sparsity test on a stored value\n";
    fixtures.push_back(std::move(f));
  }

  // ldr-nolint-reason: a bare NOLINT fires; the full grammar is accepted.
  {
    Fixture f;
    f.rule = "ldr-nolint-reason";
    f.bad["src/sim/x.cc"] = "int a = f();  // NOLINT\n";
    f.good["src/sim/x.cc"] =
        "int a = f();  // NOLINT(ldr-float-eq): documented invariant\n";
    fixtures.push_back(std::move(f));
  }

  // ldr-getenv: getenv anywhere in src/ but thread_pool.cc fires; the
  // allowed file, and mentions in comments and strings, stay quiet.
  {
    Fixture f;
    f.rule = "ldr-getenv";
    f.bad["src/util/failpoint.cc"] =
        "const char* spec = std::getenv(\"LDR_FAILPOINTS\");\n";
    f.good["src/util/thread_pool.cc"] =
        "const char* env = std::getenv(\"LDR_THREADS\");\n";
    f.good["src/sim/x.cc"] =
        "// no getenv here\n"
        "const char* k = \"getenv\";\n";
    fixtures.push_back(std::move(f));
  }

  return fixtures;
}

int RunSelfTest() {
  int failures = 0;
  for (const Fixture& f : SelfTestFixtures()) {
    g_findings.clear();
    RunAllRules(f.bad);
    long fired = static_cast<long>(
        std::count_if(g_findings.begin(), g_findings.end(),
                      [&](const Finding& x) { return x.rule == f.rule; }));
    if (fired == 0) {
      std::fprintf(stderr,
                   "ldr_lint self-test FAIL: rule %s did not fire on its "
                   "violating fixture\n",
                   f.rule.c_str());
      ++failures;
    }
    g_findings.clear();
    RunAllRules(f.good);
    for (const Finding& x : g_findings) {
      if (x.rule == f.rule) {
        std::fprintf(stderr,
                     "ldr_lint self-test FAIL: rule %s fired on its clean "
                     "fixture (%s:%zu: %s)\n",
                     f.rule.c_str(), x.file.c_str(), x.line,
                     x.message.c_str());
        ++failures;
        break;
      }
    }
  }
  if (failures == 0) {
    std::printf("ldr_lint self-test OK: every rule fires on its fixture and "
                "stays quiet on the clean twin\n");
  }
  return failures == 0 ? 0 : 1;
}

void PrintRules() {
  std::printf(
      "ldr-failpoint-registry  LDR_FAILPOINT sites <-> documented registry\n"
      "ldr-ctest-timeout       every add_test carries a TIMEOUT property\n"
      "ldr-lp-alloc            no naked new/malloc in src/lp/\n"
      "ldr-float-eq            no tolerance-free ==/!= on float literals in "
      "src/lp/\n"
      "ldr-nolint-reason       suppressions must be NOLINT(rule): reason\n"
      "ldr-getenv              getenv in src/ only in "
      "src/util/thread_pool.cc\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string arg = argc > 1 ? argv[1] : "";
  if (arg == "--self-test") return RunSelfTest();
  if (arg == "--list") {
    PrintRules();
    return 0;
  }
  fs::path root = arg.empty() ? fs::path(".") : fs::path(arg);
  if (!fs::exists(root / "CMakeLists.txt")) {
    std::fprintf(stderr,
                 "ldr_lint: %s does not look like the repo root "
                 "(no CMakeLists.txt)\n",
                 root.string().c_str());
    return 2;
  }
  Tree tree = LoadTree(root);
  RunAllRules(tree);
  if (g_findings.empty()) {
    std::printf("ldr_lint: clean (%zu files)\n", tree.size());
    return 0;
  }
  for (const Finding& f : g_findings) {
    if (f.line > 0) {
      std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                   f.rule.c_str(), f.message.c_str());
    } else {
      std::fprintf(stderr, "%s: [%s] %s\n", f.file.c_str(), f.rule.c_str(),
                   f.message.c_str());
    }
  }
  std::fprintf(stderr, "ldr_lint: %zu finding(s)\n", g_findings.size());
  return 1;
}
