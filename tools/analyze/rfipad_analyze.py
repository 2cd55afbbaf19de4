#!/usr/bin/env python3
"""rfipad semantic AST analyzer: memory ordering, lock order, hot-path allocation.

The regex linter (tools/lint/rfipad_lint.py) is lexical: it can ban a token,
but it cannot see that a release store has no matching acquire load, that two
translation units acquire the same mutexes in opposite orders, or that a
function four calls below an ingest entry point grows a vector.  This tool
closes that gap with a deterministic semantic model of the C++ tree — a
tokenizer, a scope tree (namespaces / classes / function bodies), registries
of every `std::atomic` and `rfipad::Mutex` declaration, and a cross-TU call
graph — and enforces three rule families over it:

  atomic-explicit-order   every access to a `std::atomic` in src/ must pass
                          an explicit `std::memory_order` argument; the
                          defaulted seq_cst is never what a hot path wants,
                          and writing the order down is what makes the
                          pairing auditable.  Operator accesses (`++`, `+=`,
                          plain assignment) are implicit seq_cst and are
                          flagged too.
  atomic-relaxed-branch   a relaxed load may not sit in a branch condition
                          (`if`/`while`/`for`) — a control decision taken on
                          a relaxed read is the classic lost-wakeup /
                          missed-stop bug.  Audited spin/stats sites go in
                          the allowlist with a justification.
  atomic-unpaired         release/acquire pairing per field: a field with a
                          release-side write (store(release), RMW acq_rel,
                          explicit seq_cst) must have an acquire-side read
                          somewhere in the tree, and vice versa — an
                          unpaired half is either a missing fence or a
                          stronger order than the algorithm needs.
  lock-order-cycle        the directed graph of nested `MutexLock`
                          acquisitions (lexical nesting plus lock-sets
                          propagated through the call graph) must be acyclic
                          — a cycle is a deadlock waiting for the right
                          interleaving.
  hotpath-alloc           no `new` / `malloc` / `make_unique` / growing
                          container op (`push_back`, `insert`, `resize`,
                          `reserve`, ...) reachable from a function marked
                          RFIPAD_HOT_PATH (common/contracts.hpp).  The walk
                          follows the call graph, so the check survives
                          refactors that move the allocation into a helper.
  hotpath-function        no `std::function` construction/capture reachable
                          from a hot-path root (type-erased callables heap-
                          allocate their captures).
  hotpath-throw           no `throw` reachable from a hot-path root (the
                          unwinder allocates; hot paths report failure by
                          return value, contract aborts cover bugs).

The analyzed tree is defined by the `compile_commands.json` the `lint`
preset exports (every TU under src/, plus all src/ headers); without a
compile database the tool falls back to walking src/ directly so the check
runs anywhere Python runs.  The frontend is embedded rather than libclang:
the toolchain image carries no libclang Python bindings, and a dependency-
free frontend keeps the gate un-skippable (same posture as rfipad_lint.py).
The RFIPAD_HOT_PATH macro also expands to a Clang `annotate` attribute, so
a libclang- or plugin-based backend can adopt the same annotations later.

Resolution is deliberately conservative and deterministic: member names are
resolved to declarations by (enclosing class, then same file, then unique
name in tree); calls resolve to every function of that name when the
receiver type is unknown.  Unresolvable accesses are skipped rather than
guessed.

Audited exceptions live in ``tools/analyze/analyze_allowlist.txt`` (max
%(max_allow)d entries, unused entries are a hard error).  Exit code 0 means
clean, 1 means findings, 2 means bad invocation or config.

Self-test mode (``--self-test DIR``) analyzes every fixture under DIR as an
isolated tree and compares the produced rule set against the fixture's
``ANALYZE-EXPECT`` header; see tests/analyze/README.md.
"""

import argparse
import json
import os
import re
import sys
from collections import defaultdict

MAX_ALLOWLIST_ENTRIES = 12

ANALYZE_DIRS = ("src",)

ATOMIC_LOAD_METHODS = {"load"}
ATOMIC_STORE_METHODS = {"store"}
ATOMIC_RMW_METHODS = {
    "exchange", "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
    "fetch_xor", "compare_exchange_weak", "compare_exchange_strong",
}
ATOMIC_METHODS = ATOMIC_LOAD_METHODS | ATOMIC_STORE_METHODS | ATOMIC_RMW_METHODS

# Methods never treated as call-graph edges: std container/atomic/thread
# vocabulary.  A repo function deliberately reusing one of these names would
# be invisible to the walk — keep repo API names out of this set.
STD_METHOD_IGNORE = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong", "push_back", "emplace_back", "pop_back",
    "pop_front", "insert", "emplace", "erase", "resize", "reserve", "clear",
    "size", "empty", "begin", "end", "rbegin", "rend", "front", "back",
    "data", "c_str", "str", "find", "count", "at", "get", "reset",
    "release", "swap", "lock", "unlock", "try_lock", "join", "joinable",
    "detach", "wait", "notify_one", "notify_all", "native_handle",
    "capacity", "shrink_to_fit", "substr", "append", "assign", "compare",
    "length", "first", "second", "value", "has_value", "emplace_front",
}

CPP_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "break", "continue", "return", "goto", "try", "catch", "throw",
    "new", "delete", "sizeof", "alignof", "alignas", "decltype", "typeid",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "class", "struct", "union", "enum", "namespace", "template",
    "typename", "using", "typedef", "public", "private", "protected",
    "virtual", "override", "final", "const", "constexpr", "consteval",
    "constinit", "mutable", "volatile", "static", "extern", "inline",
    "friend", "explicit", "operator", "noexcept", "this", "nullptr",
    "true", "false", "auto", "void", "bool", "char", "int", "long",
    "short", "float", "double", "unsigned", "signed", "and", "or", "not",
    "co_await", "co_return", "co_yield", "requires", "concept", "export",
}

# Growing-container member calls rejected on the hot path.  `reserve` is
# included: it is exactly one allocation, which is one too many per sample.
GROWTH_METHODS = {
    "push_back", "emplace_back", "insert", "emplace", "resize", "reserve",
    "append", "push_front", "emplace_front", "assign", "shrink_to_fit",
}

ALLOC_CALLS = {"malloc", "calloc", "realloc", "strdup", "aligned_alloc",
               "make_unique", "make_shared"}

MEMORY_ORDERS = {
    "memory_order_relaxed", "memory_order_consume", "memory_order_acquire",
    "memory_order_release", "memory_order_acq_rel", "memory_order_seq_cst",
}
RELEASE_SIDE = {"memory_order_release", "memory_order_acq_rel",
                "memory_order_seq_cst"}
ACQUIRE_SIDE = {"memory_order_acquire", "memory_order_acq_rel",
                "memory_order_seq_cst", "memory_order_consume"}

HOT_PATH_MACRO = "RFIPAD_HOT_PATH"


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving newlines."""
    out = []
    i, n = 0, len(text)
    mode = None
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                mode = c
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif mode == "line":
            if c == "\n":
                mode = None
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        else:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == mode:
                mode = None
            out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"          # identifier / keyword
    r"|\d[\dA-Za-z_.+\-']*"            # numeric literal (pp-number, loose)
    r"|::|->\*?|\+\+|--|<<=|>>=|<=>|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/="
    r"|%=|&=|\|=|\^=|\.\.\.|."         # operators / punctuation
)


class Tok:
    __slots__ = ("text", "line", "is_ident")

    def __init__(self, text, line, is_ident):
        self.text = text
        self.line = line
        self.is_ident = is_ident

    def __repr__(self):
        return f"Tok({self.text!r}@{self.line})"


def tokenize(code):
    toks = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(code):
        text = m.group(0)
        line += code.count("\n", pos, m.start())
        pos = m.start()
        if text.isspace():
            continue
        first = text[0]
        is_ident = first.isalpha() or first == "_"
        toks.append(Tok(text, line, is_ident))
    return toks


# ---------------------------------------------------------------------------
# Scope tree: namespaces, classes, function bodies
# ---------------------------------------------------------------------------

class Scope:
    """One braced region: kind in {'namespace','class','function','other'}."""
    __slots__ = ("kind", "name", "start", "end", "parent", "children", "line")

    def __init__(self, kind, name, start, parent, line):
        self.kind = kind
        self.name = name
        self.start = start          # index of '{' token
        self.end = None             # index of matching '}' token
        self.parent = parent
        self.children = []
        self.line = line

    def class_path(self):
        """Enclosing class names, outermost first (namespaces excluded)."""
        parts = []
        s = self
        while s is not None:
            if s.kind == "class" and s.name:
                parts.append(s.name)
            s = s.parent
        return list(reversed(parts))


def _is_macro_name(text):
    return bool(re.fullmatch(r"[A-Z][A-Z0-9_]*", text)) and "_" in text


def _match_back_paren(toks, close_idx):
    """Index of the '(' matching toks[close_idx] == ')'."""
    depth = 0
    i = close_idx
    while i >= 0:
        t = toks[i].text
        if t == ")":
            depth += 1
        elif t == "(":
            depth -= 1
            if depth == 0:
                return i
        i -= 1
    return -1


QUALIFIER_TOKENS = {"const", "noexcept", "override", "final", "mutable",
                    "volatile", "&", "&&", "try", "->"}


def classify_brace(toks, brace_idx, enclosing):
    """Classify the '{' at brace_idx.  Returns (kind, name)."""
    i = brace_idx - 1
    if i < 0:
        return ("other", None)
    t = toks[i].text
    # namespace NAME { / namespace {
    if t == "namespace":
        return ("namespace", None)
    if toks[i].is_ident and i >= 1 and toks[i - 1].text == "namespace":
        return ("namespace", toks[i].text)
    # enum [class] NAME [: base] { — treat as plain block, never a class
    j = i
    while j >= 0 and (toks[j].is_ident or toks[j].text in (":", "::")):
        if toks[j].text == "enum":
            return ("other", None)
        if toks[j].text in ("class", "struct", "union"):
            # class/struct NAME [final] [: bases] {
            k = j + 1
            name = None
            while k < brace_idx:
                if toks[k].is_ident and toks[k].text not in ("final",):
                    name = toks[k].text
                    break
                k += 1
            return ("class", name)
        j -= 1
    # Walk back through qualifiers / macro annotations / ctor-init-lists to
    # find `name ( params )` — a function definition.
    i = brace_idx - 1
    steps = 0
    while i >= 0 and steps < 400:
        steps += 1
        t = toks[i]
        if t.text in QUALIFIER_TOKENS:
            i -= 1
            continue
        if t.text == ")":
            open_idx = _match_back_paren(toks, i)
            if open_idx <= 0:
                return ("other", None)
            prev = toks[open_idx - 1]
            if prev.is_ident and _is_macro_name(prev.text):
                # annotation macro: RFIPAD_EXCLUDES(...), RFIPAD_ACQUIRE(...)
                i = open_idx - 2
                continue
            if prev.is_ident and prev.text == "noexcept":
                i = open_idx - 2
                continue
            if prev.is_ident and prev.text not in CPP_KEYWORDS:
                # candidate `name(...)`.  Could be a ctor-init-list entry:
                # `: member(...) {` or `, member(...) {` — keep walking.
                before = toks[open_idx - 2] if open_idx >= 2 else None
                if before is not None and before.text in (":", ","):
                    i = open_idx - 2
                    continue
                return ("function", prev.text)
            if prev.is_ident and prev.text in CPP_KEYWORDS:
                # if/while/for/switch/catch (...) { — control block
                return ("other", None)
            # `](...)` lambda, `>(...)` template ctor, ...
            return ("other", None)
        if t.is_ident and _is_macro_name(t.text):
            i -= 1
            continue
        if t.text in (";", "}", "{", ":", ",", "=", "]"):
            return ("other", None)
        i -= 1
    return ("other", None)


def build_scopes(toks):
    """Parse the token stream into a scope tree; returns the root scope."""
    root = Scope("root", None, -1, None, 0)
    cur = root
    for idx, tok in enumerate(toks):
        if tok.text == "{":
            kind, name = classify_brace(toks, idx, cur)
            child = Scope(kind, name, idx, cur, tok.line)
            cur.children.append(child)
            cur = child
        elif tok.text == "}":
            if cur is not root:
                cur.end = idx
                cur = cur.parent
    # Unterminated scopes (parse slip): close at EOF.
    s = cur
    while s is not None and s is not root:
        if s.end is None:
            s.end = len(toks) - 1
        s = s.parent
    return root


def iter_scopes(scope):
    yield scope
    for c in scope.children:
        yield from iter_scopes(c)


def innermost_class(scope):
    s = scope
    while s is not None:
        if s.kind == "class":
            return s
        s = s.parent
    return None


# ---------------------------------------------------------------------------
# Declarations: atomics, mutexes, functions
# ---------------------------------------------------------------------------

class Decl:
    __slots__ = ("name", "owner", "path", "line", "scope")

    def __init__(self, name, owner, path, line, scope):
        self.name = name      # member/variable name
        self.owner = owner    # "Class::Nested" / "func:Qualified" / "" (file)
        self.path = path
        self.line = line
        self.scope = scope

    @property
    def key(self):
        return f"{self.owner}::{self.name}" if self.owner else self.name


class FuncDef:
    __slots__ = ("name", "qual", "path", "line", "scope", "hot_path",
                 "body_range")

    def __init__(self, name, qual, path, line, scope, hot_path, body_range):
        self.name = name              # simple name
        self.qual = qual              # "Class::name" or "name"
        self.path = path
        self.line = line
        self.scope = scope
        self.hot_path = hot_path
        self.body_range = body_range  # (start_idx, end_idx) token indices


class FileModel:
    def __init__(self, path, raw):
        self.path = path
        self.raw = raw
        self.code = strip_comments_and_strings(raw)
        self.toks = tokenize(self.code)
        self.root = build_scopes(self.toks)
        self.functions = []
        self.func_scope_class = {}  # id(scope) -> class prefix ("" if free)
        self.scope_of_tok = self._index_scopes()

    def _index_scopes(self):
        """Map token index -> innermost scope containing it."""
        owner = [self.root] * len(self.toks)
        for s in iter_scopes(self.root):
            if s.kind == "root" or s.start < 0:
                continue
            end = s.end if s.end is not None else len(self.toks) - 1
            for i in range(s.start, end + 1):
                owner[i] = s if owner[i].start <= s.start else owner[i]
        return owner


def scope_owner_name(scope):
    """Key for the declaring context: class path or enclosing function."""
    cls = innermost_class(scope)
    if cls is not None:
        return "::".join(cls.class_path())
    # function-local declaration (e.g. a local struct's members resolve via
    # their own class scope; a plain local atomic resolves via its function)
    s = scope
    while s is not None:
        if s.kind == "function":
            return f"func:{s.name}"
        s = s.parent
    return ""


def qual_for_function(fdef_scope, name):
    cls = innermost_class(fdef_scope.parent) if fdef_scope.parent else None
    if cls is not None:
        return "::".join(cls.class_path() + [name])
    return name


def find_function_annotations(toks, brace_idx):
    """True if RFIPAD_HOT_PATH appears in the tokens of this signature
    (between the previous ';'/'}'/'{' and the body brace)."""
    i = brace_idx - 1
    steps = 0
    while i >= 0 and steps < 600:
        t = toks[i].text
        if t in (";", "}", "{"):
            return False
        if t == HOT_PATH_MACRO:
            return True
        i -= 1
        steps += 1
    return False


def collect_functions(model):
    out_of_line_class = {}
    for s in iter_scopes(model.root):
        if s.kind != "function":
            continue
        name = s.name
        # Out-of-line `Ret Class::name(...)`: look back from the name's
        # opening paren for `Class ::` immediately before the name.
        qual = qual_for_function(s, name)
        if "::" not in qual:
            # find the token index of the function name before s.start
            i = s.start - 1
            while i >= 0 and model.toks[i].text != "(":
                i -= 1
            # toks[i] == '(' of params?  Not reliable for init-lists; scan
            # back from the brace for `name` token instead.
            j = s.start - 1
            name_idx = None
            depth = 0
            while j >= 0:
                t = model.toks[j].text
                if t == ")":
                    depth += 1
                elif t == "(":
                    depth -= 1
                    if depth < 0:
                        break
                elif depth == 0 and model.toks[j].is_ident and t == name:
                    name_idx = j
                    break
                j -= 1
            if name_idx is not None and name_idx >= 2 and \
                    model.toks[name_idx - 1].text == "::" and \
                    model.toks[name_idx - 2].is_ident:
                parts = [model.toks[name_idx - 2].text]
                k = name_idx - 3
                while k >= 1 and model.toks[k].text == "::" and \
                        model.toks[k - 1].is_ident:
                    parts.insert(0, model.toks[k - 1].text)
                    k -= 2
                # drop namespace-ish leading parts we can't distinguish;
                # keep the last component as the class
                qual = f"{parts[-1]}::{name}"
        hot = find_function_annotations(model.toks, s.start)
        end = s.end if s.end is not None else len(model.toks) - 1
        fdef = FuncDef(name, qual, model.path, s.line, s, hot,
                       (s.start, end))
        model.functions.append(fdef)
        out_of_line_class[id(s)] = qual
        model.func_scope_class[id(s)] = \
            qual.rsplit("::", 1)[0] if "::" in qual else ""
    return model.functions


def enclosing_class_prefix(model, scope):
    """Class context of a use site: the lexical class path when inside a
    class body, else the class part of an out-of-line method's qualifier
    (`Shard::enqueue` defined in the .cpp still resolves `Shard` members)."""
    cls = innermost_class(scope)
    if cls is not None:
        return "::".join(cls.class_path())
    s = scope
    while s is not None:
        if s.kind == "function":
            return model.func_scope_class.get(id(s), "")
        s = s.parent
    return ""


def decl_matches_context(decl, prefix, use_scope, use_path):
    """True when `decl` belongs to the use site's own class (including
    nested classes either way) or is local to its enclosing function."""
    if decl.owner and prefix:
        if decl.owner == prefix or \
                decl.owner.startswith(prefix + "::") or \
                prefix.startswith(decl.owner + "::"):
            return True
    s = use_scope
    while s is not None:
        if s.kind == "function" and decl.scope is not None and \
                decl.path == use_path and _scope_within(decl.scope, s):
            return True
        s = s.parent
    return False


def collect_atomic_decls(model, decls):
    """`std::atomic<...>` (optionally `&`/`*`) followed by a declarator
    name.  Covers members, locals, and reference parameters."""
    toks = model.toks
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.text == "atomic" and i + 1 < n and toks[i + 1].text == "<":
            # skip template args
            depth = 0
            j = i + 1
            while j < n:
                if toks[j].text == "<":
                    depth += 1
                elif toks[j].text == ">":
                    depth -= 1
                    if depth == 0:
                        break
                elif toks[j].text == ">>":
                    depth -= 2
                    if depth <= 0:
                        break
                elif toks[j].text in (";", "{", "}"):
                    break
                j += 1
            j += 1
            while j < n and toks[j].text in ("&", "*", "const"):
                j += 1
            if j < n and toks[j].is_ident and \
                    toks[j].text not in CPP_KEYWORDS:
                scope = model.scope_of_tok[min(j, n - 1)]
                owner = scope_owner_name(scope)
                decls.append(Decl(toks[j].text, owner, model.path,
                                  toks[j].line, scope))
            i = j
        i += 1


def collect_mutex_decls(model, decls):
    """`Mutex name;` (rfipad::Mutex) — member, local, or file-scope."""
    toks = model.toks
    n = len(toks)
    for i, t in enumerate(toks):
        if t.text != "Mutex" or i + 1 >= n:
            continue
        # skip `class Mutex`, `Mutex&` parameters keep their name too
        if i >= 1 and toks[i - 1].text in ("class", "struct", "::"):
            # `rfipad::Mutex name` reaches here with prev '::'; allow it
            if toks[i - 1].text != "::":
                continue
        j = i + 1
        while j < n and toks[j].text in ("&", "*", "const"):
            j += 1
        if j < n and toks[j].is_ident and toks[j].text not in CPP_KEYWORDS \
                and toks[j].text != "Mutex":
            nxt = toks[j + 1].text if j + 1 < n else ""
            if nxt in (";", "=", "{", ")", ","):
                scope = model.scope_of_tok[j]
                owner = scope_owner_name(scope)
                decls.append(Decl(toks[j].text, owner, model.path,
                                  toks[j].line, scope))


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

class Registry:
    def __init__(self):
        self.by_name = defaultdict(list)

    def add(self, decl):
        self.by_name[decl.name].append(decl)

    def resolve(self, name, use_scope, use_path):
        """Resolve an access to a declaration: enclosing-class preference,
        then enclosing-function locals, then same file, then unique."""
        cands = self.by_name.get(name)
        if not cands:
            return None
        if len(cands) == 1:
            return cands[0]
        cls = innermost_class(use_scope)
        if cls is not None:
            prefix = "::".join(cls.class_path())
            scoped = [d for d in cands
                      if d.owner == prefix or d.owner.startswith(prefix + "::")]
            if len(scoped) >= 1:
                return scoped[0]
        # function-local decls (including members of function-local structs)
        s = use_scope
        while s is not None:
            if s.kind == "function":
                local = [d for d in cands
                         if d.path == use_path and d.scope is not None and
                         _scope_within(d.scope, s)]
                if local:
                    return local[0]
            s = s.parent
        same_file = [d for d in cands if d.path == use_path]
        if len(same_file) == 1:
            return same_file[0]
        return None


def _scope_within(inner, outer):
    s = inner
    while s is not None:
        if s is outer:
            return True
        s = s.parent
    return False


# ---------------------------------------------------------------------------
# Pass 1: atomic ordering discipline
# ---------------------------------------------------------------------------

def _paren_span(toks, open_idx):
    depth = 0
    for i in range(open_idx, len(toks)):
        if toks[i].text == "(":
            depth += 1
        elif toks[i].text == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(toks) - 1


def _collect_condition_ranges(toks):
    """Token ranges of if/while/for conditions (inclusive)."""
    ranges = []
    for i, t in enumerate(toks):
        if t.is_ident and t.text in ("if", "while", "for") and \
                i + 1 < len(toks) and toks[i + 1].text == "(":
            close = _paren_span(toks, i + 1)
            ranges.append((i + 1, close))
    return ranges


class AtomicAccess:
    __slots__ = ("decl", "method", "orders", "line", "path", "explicit")

    def __init__(self, decl, method, orders, line, path, explicit):
        self.decl = decl
        self.method = method
        self.orders = orders
        self.line = line
        self.path = path
        self.explicit = explicit


def scan_atomic_accesses(model, atomics, findings):
    toks = model.toks
    n = len(toks)
    cond_ranges = _collect_condition_ranges(toks)
    accesses = []

    def in_condition(idx):
        return any(lo <= idx <= hi for lo, hi in cond_ranges)

    for i, t in enumerate(toks):
        if not t.is_ident or t.text not in ATOMIC_METHODS:
            continue
        if i < 2 or toks[i - 1].text not in (".", "->"):
            continue
        recv = toks[i - 2]
        if not recv.is_ident:
            continue
        decl = atomics.resolve(recv.text, model.scope_of_tok[i], model.path)
        if decl is None:
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        close = _paren_span(toks, i + 1)
        arg_tokens = toks[i + 2:close]
        orders = {a.text for a in arg_tokens if a.text in MEMORY_ORDERS}
        explicit = bool(orders)
        accesses.append(AtomicAccess(decl, t.text, orders, t.line,
                                     model.path, explicit))
        if not explicit:
            findings.append(Finding(
                model.path, t.line, "atomic-explicit-order",
                f"`{recv.text}.{t.text}(...)` uses the defaulted "
                f"seq_cst ordering; state the memory_order explicitly "
                f"(and prefer the weakest order the algorithm admits)"))
        if t.text in ATOMIC_LOAD_METHODS and \
                orders == {"memory_order_relaxed"} and in_condition(i):
            findings.append(Finding(
                model.path, t.line, "atomic-relaxed-branch",
                f"relaxed load of `{recv.text}` feeds a branch condition; "
                f"a control decision on a relaxed read risks lost wakeups "
                f"— use acquire, or allowlist an audited spin/stats site"))

    # Operator accesses: implicit seq_cst (`x++`, `x += k`, `x = v`).
    # Without type information this pass is deliberately strict about when
    # a name *is* the atomic: bare names (or `this->name`) resolving inside
    # the declaring class or enclosing function only.  `other.name` through
    # an arbitrary receiver is skipped — plain structs routinely reuse
    # counter names (PumpStats mirrors Worker's atomics field-for-field).
    for i, t in enumerate(toks):
        if not t.is_ident or t.text in CPP_KEYWORDS:
            continue
        nxt = toks[i + 1].text if i + 1 < n else ""
        prev = toks[i - 1].text if i >= 1 else ""
        is_write = nxt in ("++", "--", "+=", "-=", "&=", "|=", "^=") or \
            (nxt == "=" and (i + 2 >= n or toks[i + 2].text != "=")
             and prev not in ("=", "==", "!=", "<", ">", "<=", ">="))
        is_prefix = prev in ("++", "--") and nxt not in (".", "->", "::")
        if not (is_write or is_prefix):
            continue
        if prev in (".", "->"):
            # member form: only `this->name` is unambiguous
            if not (i >= 2 and toks[i - 2].text == "this"):
                continue
        elif prev == "::":
            continue
        elif toks[i - 1].is_ident if i >= 1 else False:
            continue  # `Type name = ...` — a declaration, not an access
        elif prev in ("&", "*", ">", ">>", "]"):
            continue  # declarator tail (`auto& seq = ...`, `T* p = ...`)
        scope = model.scope_of_tok[i]
        decl = atomics.resolve(t.text, scope, model.path)
        if decl is None:
            continue
        if not decl_matches_context(
                decl, enclosing_class_prefix(model, scope), scope,
                model.path):
            continue
        # skip the declaration itself (`std::atomic<int> x = ...`)
        if decl.path == model.path and decl.line == t.line:
            continue
        accesses.append(AtomicAccess(decl, "operator", set(), t.line,
                                     model.path, False))
        findings.append(Finding(
            model.path, t.line, "atomic-explicit-order",
            f"operator access to atomic `{t.text}` is an implicit "
            f"seq_cst operation; use load/store/fetch_* with an "
            f"explicit memory_order"))
    return accesses


def check_atomic_pairing(all_accesses, findings):
    """Per resolved field: release-side writes need an acquire-side read
    somewhere in the tree, and vice versa."""
    by_key = defaultdict(list)
    for a in all_accesses:
        by_key[a.decl.key].append(a)
    for key in sorted(by_key):
        accs = by_key[key]
        release_writes = [a for a in accs
                          if (a.method in ATOMIC_STORE_METHODS or
                              a.method in ATOMIC_RMW_METHODS)
                          and a.orders & RELEASE_SIDE]
        acquire_reads = [a for a in accs
                         if (a.method in ATOMIC_LOAD_METHODS or
                             a.method in ATOMIC_RMW_METHODS)
                         and a.orders & ACQUIRE_SIDE]
        if release_writes and not acquire_reads:
            w = release_writes[0]
            findings.append(Finding(
                w.path, w.line, "atomic-unpaired",
                f"`{key}` has release-ordered writes but no acquire-ordered "
                f"read anywhere in the tree — the release publishes nothing; "
                f"add the acquire load or relax the store"))
        if acquire_reads and not release_writes:
            r = acquire_reads[0]
            findings.append(Finding(
                r.path, r.line, "atomic-unpaired",
                f"`{key}` has acquire-ordered reads but no release-ordered "
                f"write anywhere in the tree — the acquire synchronises "
                f"with nothing; add the release store or relax the load"))


# ---------------------------------------------------------------------------
# Pass 2: call graph + lock order
# ---------------------------------------------------------------------------

class CallSite:
    __slots__ = ("callee_name", "qualifier", "is_member", "line", "tok_idx",
                 "receiver")

    def __init__(self, callee_name, qualifier, is_member, line, tok_idx,
                 receiver=None):
        self.callee_name = callee_name
        self.qualifier = qualifier
        self.is_member = is_member
        self.line = line
        self.tok_idx = tok_idx
        self.receiver = receiver  # identifier before `.`/`->`, if simple


STD_TYPE_WRAPPERS = {
    "vector", "unique_ptr", "shared_ptr", "optional", "array", "deque",
    "map", "unordered_map", "span", "atomic", "reference_wrapper", "pair",
}


def collect_var_types(model, var_types):
    """Lexical declarator scan: `Type [<...>] [&*] name (;|=|{|,|))` records
    name -> candidate type names.  For wrapped declarations
    (`vector<Shard*>`, `unique_ptr<Worker>`) the template-argument
    identifiers are recorded too — a member call through `v[i]->` or
    `p->` dispatches on the element type, not the wrapper.  The map is a
    *hint* for receiver-type resolution; lookups that miss fall back to
    every same-name candidate, so noise here costs precision, never
    soundness."""
    toks = model.toks
    n = len(toks)
    for i, t in enumerate(toks):
        if not t.is_ident or t.text in CPP_KEYWORDS:
            continue
        nxt = toks[i + 1].text if i + 1 < n else ""
        if nxt not in (";", "=", "{", ")", ","):
            continue
        names = set()
        j = i - 1
        while j >= 0 and toks[j].text in ("&", "*", "const"):
            j -= 1
        if j >= 0 and toks[j].text in (">", ">>"):
            depth = 0
            while j >= 0:
                tx = toks[j].text
                if tx in (">", ">>"):
                    depth += 2 if tx == ">>" else 1
                elif tx == "<":
                    depth -= 1
                    if depth <= 0:
                        j -= 1
                        break
                elif toks[j].is_ident and tx not in CPP_KEYWORDS and \
                        tx != "std" and not _is_macro_name(tx):
                    names.add(tx)
                j -= 1
        if j < 0 or not toks[j].is_ident or toks[j].text in CPP_KEYWORDS \
                or _is_macro_name(toks[j].text):
            continue
        outer = toks[j].text
        if outer != "std":
            names.add(outer)
        names -= STD_TYPE_WRAPPERS
        if names:
            var_types[t.text].update(names)


class LockSite:
    __slots__ = ("decl", "line", "tok_idx", "scope_end")

    def __init__(self, decl, line, tok_idx, scope_end):
        self.decl = decl
        self.line = line
        self.tok_idx = tok_idx
        self.scope_end = scope_end  # token index where the guard dies


def _enclosing_block_end(model, tok_idx):
    """Token index of the '}' closing the innermost block containing
    tok_idx (the lifetime of a scoped lock declared there)."""
    s = model.scope_of_tok[tok_idx]
    end = s.end if s.end is not None else len(model.toks) - 1
    return end


def scan_calls_and_locks(model, mutexes):
    """For every function definition: its callsites and MutexLock sites."""
    toks = model.toks
    n = len(toks)
    for f in model.functions:
        lo, hi = f.body_range
        calls = []
        locks = []
        i = lo
        while i <= hi:
            t = toks[i]
            if t.is_ident and t.text == "MutexLock" and i + 2 <= hi and \
                    toks[i + 1].is_ident and toks[i + 2].text == "(":
                close = _paren_span(toks, i + 2)
                # lock identity: last identifier inside the parens
                name = None
                for k in range(close - 1, i + 2, -1):
                    if toks[k].is_ident:
                        name = toks[k]
                        break
                if name is not None:
                    decl = mutexes.resolve(name.text, model.scope_of_tok[i],
                                           model.path)
                    if decl is not None:
                        locks.append(LockSite(
                            decl, name.line, i,
                            _enclosing_block_end(model, i)))
                i = close + 1
                continue
            if t.is_ident and t.text not in CPP_KEYWORDS and \
                    not _is_macro_name(t.text) and i + 1 <= hi and \
                    toks[i + 1].text == "(":
                prev = toks[i - 1].text if i >= 1 else ""
                is_member = prev in (".", "->")
                qualifier = None
                if prev == "::" and i >= 2 and toks[i - 2].is_ident:
                    qualifier = toks[i - 2].text
                if is_member and t.text in STD_METHOD_IGNORE:
                    i += 1
                    continue
                if not is_member and prev not in ("::",) and i >= 1 and \
                        prev not in ("return", "co_return", "throw") and \
                        (toks[i - 1].is_ident or toks[i - 1].text in
                         (">", "&", "*")):
                    # `Type name(...)` declaration, not a call (`return
                    # f(...)` is a call)
                    i += 1
                    continue
                if qualifier == "std" or (qualifier is None and prev == "::"):
                    i += 1
                    continue
                receiver = None
                if is_member and i >= 2 and toks[i - 2].is_ident:
                    receiver = toks[i - 2].text
                calls.append(CallSite(t.text, qualifier, is_member,
                                      t.line, i, receiver))
            elif t.is_ident and t.text in ("make_unique", "make_shared") \
                    and i + 1 <= hi and toks[i + 1].text == "<":
                # make_unique<Type>(...): record Type's constructor
                close = i + 1
                depth = 0
                ctor = None
                while close <= hi:
                    if toks[close].text == "<":
                        depth += 1
                    elif toks[close].text in (">", ">>"):
                        depth -= 2 if toks[close].text == ">>" else 1
                        if depth <= 0:
                            break
                    elif depth == 1 and toks[close].is_ident and ctor is None:
                        ctor = toks[close]
                    close += 1
                if ctor is not None:
                    calls.append(CallSite(ctor.text, None, False,
                                          ctor.line, i))
            i += 1
        f_calls_key = (f.path, f.qual, f.line)
        yield f, calls, locks


def _qual_matches_type(qual, type_name, callee_name):
    """`Worker` matches both `Worker::wake` and `PumpRuntime::Worker::wake`."""
    return qual == f"{type_name}::{callee_name}" or \
        qual.endswith(f"::{type_name}::{callee_name}")


def resolve_callees(site, func_table, caller, var_types):
    """Candidate FuncDefs for one callsite.  Resolution order: explicit
    `Class::fn` qualifier, then the receiver's declared type (when the
    declarator scan captured it), then the caller's own class for bare
    calls, then — conservatively — every same-name function."""
    cands = func_table.get(site.callee_name, [])
    if not cands:
        return []
    if site.qualifier is not None:
        scoped = [g for g in cands
                  if g.qual == f"{site.qualifier}::{site.callee_name}"]
        if scoped:
            return scoped
    if site.is_member and site.receiver:
        types = var_types.get(site.receiver)
        if types:
            typed = [g for g in cands
                     if any(_qual_matches_type(g.qual, tn, site.callee_name)
                            for tn in types)]
            if typed:
                return typed
    if not site.is_member:
        # prefer a method of the caller's own class for bare calls
        if "::" in caller.qual:
            cls = caller.qual.rsplit("::", 1)[0]
            own = [g for g in cands if g.qual == f"{cls}::{site.callee_name}"]
            if own:
                return own
    return cands


def build_call_graph(models, func_table):
    """func id -> list of (callee FuncDef, callsite) and lock info."""
    graph = {}
    fn_locks = {}
    mutex_reg = build_mutex_registry(models)
    var_types = defaultdict(set)
    for model in models:
        collect_var_types(model, var_types)
    for model in models:
        for f, calls, locks in scan_calls_and_locks(model, mutex_reg):
            edges = []
            for site in calls:
                for callee in resolve_callees(site, func_table, f,
                                              var_types):
                    if callee is f:
                        continue
                    edges.append((callee, site))
            graph[id(f)] = (f, edges)
            fn_locks[id(f)] = locks
    return graph, fn_locks


def build_mutex_registry(models):
    reg = Registry()
    for model in models:
        decls = []
        collect_mutex_decls(model, decls)
        for d in decls:
            reg.add(d)
    return reg


def check_lock_order(models, graph, fn_locks, findings):
    # 1. locks transitively acquired by each function (fixpoint)
    trans = {fid: {ls.decl.key for ls in locks}
             for fid, locks in fn_locks.items()}
    changed = True
    iters = 0
    while changed and iters < 50:
        changed = False
        iters += 1
        for fid, (f, edges) in graph.items():
            cur = trans[fid]
            before = len(cur)
            for callee, _site in edges:
                cur |= trans.get(id(callee), set())
            if len(cur) != before:
                changed = True

    # 2. edges: lock A held (lexically active) when lock B acquired or when
    #    a callee that transitively acquires B is called.
    edge_sites = {}
    for fid, (f, edges) in graph.items():
        locks = fn_locks[fid]
        for ls in locks:
            for other in locks:
                if other is ls:
                    continue
                if ls.tok_idx < other.tok_idx <= ls.scope_end:
                    a, b = ls.decl.key, other.decl.key
                    if a != b:
                        edge_sites.setdefault((a, b), (f.path, other.line))
        for callee, site in edges:
            callee_locks = trans.get(id(callee), set())
            if not callee_locks:
                continue
            for ls in locks:
                if ls.tok_idx < site.tok_idx <= ls.scope_end:
                    for b in sorted(callee_locks):
                        if ls.decl.key != b:
                            edge_sites.setdefault(
                                (ls.decl.key, b), (f.path, site.line))

    # 3. cycle detection over the acquired-after graph
    adj = defaultdict(set)
    for (a, b) in edge_sites:
        adj[a].add(b)
    seen_cycles = set()
    state = {}

    def dfs(node, stack):
        state[node] = 1
        stack.append(node)
        for nxt in sorted(adj[node]):
            if state.get(nxt, 0) == 0:
                dfs(nxt, stack)
            elif state.get(nxt) == 1:
                cyc = stack[stack.index(nxt):] + [nxt]
                lo = min(range(len(cyc) - 1), key=lambda k: cyc[k])
                canon = tuple(cyc[lo:-1] + cyc[:lo])
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    first_edge = (cyc[0], cyc[1])
                    path, line = edge_sites.get(
                        first_edge, edge_sites.get((cyc[-2], cyc[-1])))
                    findings.append(Finding(
                        path, line, "lock-order-cycle",
                        "inconsistent lock acquisition order: " +
                        " -> ".join(cyc) +
                        " (deadlock under the right interleaving); pick one "
                        "hierarchy and release before acquiring against it"))
        stack.pop()
        state[node] = 2

    for node in sorted(adj):
        if state.get(node, 0) == 0:
            dfs(node, [])


# ---------------------------------------------------------------------------
# Pass 3: hot-path allocation, call-graph aware
# ---------------------------------------------------------------------------

def check_hot_paths(models, graph, findings):
    roots = [f for fid, (f, _e) in graph.items() if f.hot_path]
    if not roots:
        return
    # BFS with first-reaching chain for diagnostics
    reach = {}
    queue = []
    for r in sorted(roots, key=lambda f: (f.path, f.line)):
        reach[id(r)] = [r.qual]
        queue.append(r)
    while queue:
        f = queue.pop(0)
        chain = reach[id(f)]
        if len(chain) > 12:
            continue
        _f, edges = graph[id(f)]
        for callee, _site in sorted(
                edges, key=lambda e: (e[0].path, e[0].line)):
            if id(callee) not in reach:
                reach[id(callee)] = chain + [callee.qual]
                queue.append(callee)

    model_by_path = {}
    for m in models:
        model_by_path.setdefault(m.path, m)

    for fid, chain in sorted(reach.items(),
                             key=lambda kv: (kv[1], )):
        f = graph[fid][0]
        model = model_by_path[f.path]
        via = " -> ".join(chain)
        scan_hotpath_body(model, f, via, findings)


def scan_hotpath_body(model, f, via, findings):
    toks = model.toks
    lo, hi = f.body_range
    i = lo
    n = len(toks)
    while i <= hi:
        t = toks[i]
        nxt = toks[i + 1].text if i + 1 < n else ""
        prev = toks[i - 1].text if i >= 1 else ""
        if t.is_ident and t.text == "new" and prev != "delete":
            findings.append(Finding(
                model.path, t.line, "hotpath-alloc",
                f"`new` reachable from hot path ({via}); use reused "
                f"scratch, inline storage, or a caller-owned arena"))
        elif t.is_ident and t.text in ALLOC_CALLS and nxt in ("(", "<"):
            findings.append(Finding(
                model.path, t.line, "hotpath-alloc",
                f"`{t.text}` reachable from hot path ({via}); allocation "
                f"belongs on the cold setup path"))
        elif t.is_ident and t.text in GROWTH_METHODS and \
                prev in (".", "->") and nxt == "(":
            findings.append(Finding(
                model.path, t.line, "hotpath-alloc",
                f"growing-container call `.{t.text}(...)` reachable from "
                f"hot path ({via}); growth may reallocate — pre-size on "
                f"the cold path or use fixed-capacity storage"))
        elif t.is_ident and t.text == "function" and prev == "::" and \
                i >= 2 and toks[i - 2].text == "std":
            findings.append(Finding(
                model.path, t.line, "hotpath-function",
                f"std::function reachable from hot path ({via}); "
                f"type-erased callables heap-allocate captures — use a "
                f"template parameter or function pointer"))
        elif t.is_ident and t.text == "throw":
            findings.append(Finding(
                model.path, t.line, "hotpath-throw",
                f"`throw` reachable from hot path ({via}); hot paths "
                f"report failure by return value (contract aborts cover "
                f"programming errors)"))
        i += 1


# ---------------------------------------------------------------------------
# Allowlist
# ---------------------------------------------------------------------------

def load_allowlist(path):
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":", 2)
            if len(parts) < 2:
                raise SystemExit(
                    f"allowlist {path}:{lineno}: malformed entry {line!r}")
            entries.append({
                "path": parts[0],
                "rule": parts[1],
                "substr": parts[2] if len(parts) > 2 else None,
                "used": False,
                "lineno": lineno,
            })
    if len(entries) > MAX_ALLOWLIST_ENTRIES:
        raise SystemExit(
            f"allowlist {path} has {len(entries)} entries; the audited "
            f"budget is {MAX_ALLOWLIST_ENTRIES} — fix code instead of "
            f"allowlisting")
    return entries


def apply_allowlist(findings, entries, file_lines):
    kept = []
    for f in findings:
        suppressed = False
        for e in entries:
            if e["path"] != f.path or e["rule"] != f.rule:
                continue
            if e["substr"] is not None:
                lines = file_lines.get(f.path, [])
                text = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
                if e["substr"] not in text:
                    continue
            e["used"] = True
            suppressed = True
            break
        if not suppressed:
            kept.append(f)
    return kept


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def sources_from_compile_db(db_path, root):
    """Repo-relative src/ sources named by compile_commands.json."""
    with open(db_path, encoding="utf-8") as fh:
        db = json.load(fh)
    out = set()
    root_abs = os.path.abspath(root)
    for entry in db:
        f = entry.get("file", "")
        if not os.path.isabs(f):
            f = os.path.join(entry.get("directory", ""), f)
        f = os.path.abspath(f)
        try:
            rel = os.path.relpath(f, root_abs).replace(os.sep, "/")
        except ValueError:
            continue
        if rel.startswith("src/") and rel.endswith(
                (".cpp", ".cc", ".cxx")):
            out.add(rel)
    return sorted(out)


def collect_sources(root, compile_db):
    """TU list from the compile DB (when available) plus every header under
    the analyzed dirs — ordering-pass pairing needs headers regardless of
    how the build slices them into TUs."""
    found = set()
    db_note = None
    if compile_db and os.path.exists(compile_db):
        found.update(sources_from_compile_db(compile_db, root))
        db_note = f"compile db: {len(found)} TU(s) from {compile_db}"
    for top in ANALYZE_DIRS:
        base = os.path.join(root, top)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if compile_db and os.path.exists(compile_db):
                    want = name.endswith((".hpp", ".h"))
                else:
                    want = name.endswith((".cpp", ".hpp", ".h"))
                if want:
                    full = os.path.join(dirpath, name)
                    found.add(os.path.relpath(full, root).replace(os.sep, "/"))
    return sorted(found), db_note


def analyze_tree(rel_paths, raw_by_path):
    """Run every pass over the given file set.  Returns raw findings."""
    models = []
    for rel in rel_paths:
        model = FileModel(rel, raw_by_path[rel])
        collect_functions(model)
        models.append(model)

    findings = []

    # Registries
    atomics = Registry()
    for model in models:
        decls = []
        collect_atomic_decls(model, decls)
        for d in decls:
            atomics.add(d)

    func_table = defaultdict(list)
    for model in models:
        for f in model.functions:
            func_table[f.name].append(f)

    # Pass 1
    all_accesses = []
    for model in models:
        all_accesses.extend(scan_atomic_accesses(model, atomics, findings))
    check_atomic_pairing(all_accesses, findings)

    # Pass 2 + 3 share the call graph
    graph, fn_locks = build_call_graph(models, func_table)
    check_lock_order(models, graph, fn_locks, findings)
    check_hot_paths(models, graph, findings)

    findings.sort(key=Finding.sort_key)
    return findings


def run_root(root, allowlist_path, compile_db):
    entries = load_allowlist(allowlist_path)
    rel_paths, db_note = collect_sources(root, compile_db)
    if db_note:
        print(db_note)
    elif compile_db:
        print(f"note: {compile_db} not found — analyzing src/ directly "
              f"(configure the `lint` preset to export it)", file=sys.stderr)
    raw_by_path = {}
    for rel in rel_paths:
        with open(os.path.join(root, rel), encoding="utf-8") as fh:
            raw_by_path[rel] = fh.read()

    findings = analyze_tree(rel_paths, raw_by_path)
    file_lines = {p: t.split("\n") for p, t in raw_by_path.items()}
    findings = apply_allowlist(findings, entries, file_lines)

    unused = [e for e in entries if not e["used"]]
    for e in unused:
        print(f"error: unused allowlist entry {e['path']}:{e['rule']} "
              f"(line {e['lineno']}) — stale entries are a hard error; "
              f"delete it", file=sys.stderr)

    for f in findings:
        print(f)
    print(f"rfipad_analyze: {len(rel_paths)} files, {len(findings)} "
          f"finding(s), {sum(e['used'] for e in entries)}/{len(entries)} "
          f"allowlist entries used")
    return 1 if (findings or unused) else 0


def run_self_test(fixture_dir):
    """Each fixture declares its expectations in its first lines:
         // ANALYZE-PATH: src/core/fixture.cpp   (optional virtual path)
         // ANALYZE-EXPECT: rule-a, rule-b        (or: clean)
    The analyzer must produce exactly the expected rule set, treating the
    fixture as a complete tree of its own."""
    fixtures = sorted(
        f for f in os.listdir(fixture_dir) if f.endswith((".cpp", ".hpp")))
    if not fixtures:
        print(f"self-test: no fixtures under {fixture_dir}", file=sys.stderr)
        return 2
    failures = 0
    for name in fixtures:
        path = os.path.join(fixture_dir, name)
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        m = re.search(r"//\s*ANALYZE-EXPECT:\s*([^\n]*)", raw)
        if not m:
            print(f"FAIL {name}: fixture lacks an ANALYZE-EXPECT header")
            failures += 1
            continue
        expected = set()
        if m.group(1).strip() != "clean":
            expected = {r.strip() for r in m.group(1).split(",") if r.strip()}
        pm = re.search(r"//\s*ANALYZE-PATH:\s*(\S+)", raw)
        virtual_path = pm.group(1) if pm else f"src/fixtures/{name}"
        got = {f.rule
               for f in analyze_tree([virtual_path], {virtual_path: raw})}
        if got == expected:
            print(f"ok   {name}: {sorted(got) or ['clean']}")
        else:
            print(f"FAIL {name}: expected {sorted(expected)}, "
                  f"got {sorted(got)}")
            failures += 1
    print(f"self-test: {len(fixtures)} fixtures, {failures} failure(s)")
    return 1 if failures else 0


def default_compile_db(root):
    for cand in ("build-lint", "build", "build-native"):
        p = os.path.join(root, cand, "compile_commands.json")
        if os.path.exists(p):
            return p
    return os.path.join(root, "build-lint", "compile_commands.json")


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__ % {"max_allow": MAX_ALLOWLIST_ENTRIES},
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root; analyzes src/ beneath it")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json (default: "
                             "build-lint/ or build/ under --root)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: "
                             "tools/analyze/analyze_allowlist.txt)")
    parser.add_argument("--self-test", default=None, metavar="DIR",
                        help="run the fixture self-test against DIR")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test(args.self_test)
    root = args.root or os.getcwd()
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"error: {root} does not look like the repo root (no src/)",
              file=sys.stderr)
        return 2
    allowlist = args.allowlist or os.path.join(root, "tools", "analyze",
                                               "analyze_allowlist.txt")
    compile_db = args.compile_commands or default_compile_db(root)
    return run_root(root, allowlist, compile_db)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
