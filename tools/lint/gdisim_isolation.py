#!/usr/bin/env python3
"""gdisim concurrency-isolation analyzer.

Statically proves the engine's agent-isolation model — the discipline that
makes parallel tick execution and the engine-serial fast path sound. The
model (DESIGN.md "Concurrency model"):

  * during the tick phase each agent may mutate only its own state; all
    cross-agent effects travel through ``Inbox::post`` / port APIs;
  * genuinely shared mutable state (dispatcher handshakes, wake calendar,
    metric counters) must be atomic, lock-guarded, or explicitly sanctioned
    with ``// GDISIM-SHARED: <reason>``;
  * state whose synchronization is conditionally dropped by the
    engine-serial hint (``set_serial`` / ``on_engine_serial``) may only be
    touched behind the serial gate, under the shard lock, via atomic
    accessors, or at sites annotated ``// GDISIM-SERIAL-OK: <reason>``;
  * new synchronization primitives outside ``src/core/`` must carry a
    ``// GDISIM-SHARED: <reason>`` so the concurrency inventory stays
    auditable.

Rules:

  gdisim-cross-agent-write      tick-phase code (reachable from an
                                ``on_tick`` / ``on_interactions`` override)
                                writes through a pointer or reference to
                                another agent's state
  gdisim-unguarded-shared       mutable static or namespace-scope global
                                that is neither const, atomic, thread_local
                                nor annotated GDISIM-SHARED
  gdisim-serial-only            member whose synchronization the serial
                                fast path drops, touched without checking
                                the gate / taking the lock / atomic access
  gdisim-raw-sync               atomic/mutex/spinlock declaration outside
                                src/core/ without a GDISIM-SHARED
                                annotation
  gdisim-thread-local-buffer    a thread_local declaration without a
                                GDISIM-SHARED annotation; per-thread state
                                (the inbox shard id) can hand its contents
                                to another thread, so it is part of the
                                auditable shared-state inventory even
                                though no lock guards it
  gdisim-isolation-annotation-no-reason
                                a GDISIM-SHARED / GDISIM-SERIAL-OK
                                annotation without a reason
  gdisim-nolint-reason          a NOLINT covering gdisim rules without a
                                reason (shared with the sibling analyzers)

Annotations are structured comments on the declaration line or the line
above::

    std::atomic<long> hits_{0};   // GDISIM-SHARED: relaxed metrics counter
    int cache_size() const;       // GDISIM-SERIAL-OK: engine paused here

``// NOLINT(gdisim-<rule>) <reason>`` suppressions work as in gdisim_lint.

Backends: prefers libclang (python bindings) when importable — the class
hierarchy (which types are Agents) is then resolved from the AST — and
falls back to a comment-stripping lexer plus regex rules. Both emit the
same finding schema; ``--backend`` pins one.

Usage:
  gdisim_isolation.py [paths...] [--json FILE] [--list-rules]
                      [--backend auto|regex|libclang] [--include-suppressed]

Exit status: 0 when no active findings, 1 otherwise, 2 on usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gdisim_lint_common as common  # noqa: E402  (shared lexer/NOLINT/report)

RULES = {
    "gdisim-cross-agent-write": {
        "message": "tick-phase code writes through a pointer/reference to "
        "another agent's state; cross-agent effects must go through "
        "Inbox::post or a port API so parallel ticks stay race-free",
    },
    "gdisim-unguarded-shared": {
        "message": "mutable static/global shared state without "
        "synchronization: make it atomic or lock-guarded, or sanction it "
        "with // GDISIM-SHARED: <reason>",
    },
    "gdisim-serial-only": {
        "message": "member whose synchronization the engine-serial fast "
        "path drops is touched without checking the serial gate, holding "
        "the lock, or using atomic accessors; annotate the site with "
        "// GDISIM-SERIAL-OK: <reason> if it provably runs single-threaded",
    },
    "gdisim-raw-sync": {
        "message": "synchronization primitive declared outside src/core/: "
        "keep the concurrency inventory auditable with "
        "// GDISIM-SHARED: <reason>",
    },
    "gdisim-thread-local-buffer": {
        "message": "thread_local declaration without a GDISIM-SHARED "
        "annotation: per-thread state (staging buffers, shard ids) can "
        "be read by other threads, so state why the handoff is sound "
        "(// GDISIM-SHARED: <reason>)",
    },
    "gdisim-isolation-annotation-no-reason": {
        "message": "GDISIM-SHARED / GDISIM-SERIAL-OK without a reason: "
        "state why the shared access is sound "
        "(// GDISIM-SHARED: <reason>)",
    },
    common.NOLINT_REASON_RULE: {
        "message": common.NOLINT_REASON_MESSAGE,
    },
}

# Agent tick-phase entry points; the per-class lexical call closure extends
# the set to helpers those entries call.
TICK_ENTRIES = {"on_tick", "on_interactions", "advance_tick", "accept",
                "next_wake_tick", "on_run_complete"}

# The engine-serial gate tokens (Inbox::serial_, SimulationLoop's
# engine_serial_ mirror). Word-bounded so e.g. serial_hint_state_ does not
# count as a gate check.
_GATE = re.compile(r"\b(?:engine_)?serial_(?![\w])")

_ASSIGN_OP = r"(?:=(?!=)|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--)"

_SYNC_PRIM = (
    r"(?:std::\s*)?(?:atomic\s*<|atomic_flag\b|atomic_u?int\w*\b|mutex\b|"
    r"timed_mutex\b|recursive_mutex\b|recursive_timed_mutex\b|"
    r"shared_mutex\b|shared_timed_mutex\b|condition_variable(?:_any)?\b|"
    r"counting_semaphore\b|binary_semaphore\b|barrier\b|latch\b|"
    r"once_flag\b|SpinLock\b|pthread_(?:mutex|rwlock|cond|spinlock)_t\b)")
_SYNC_DECL = re.compile(
    r"^\s*(?:mutable\s+|static\s+|inline\s+|alignas\s*\([^)]*\)\s*)*"
    + _SYNC_PRIM)
_SYNC_ANYWHERE = re.compile(_SYNC_PRIM)

# Lock-holding idioms that make a touch synchronized.
_LOCKED = re.compile(r"lock_guard|unique_lock|scoped_lock|shared_lock|"
                     r"\.lock\s*\(|\block\b")

_ATOMIC_ACCESS = re.compile(
    r"\s*(?:\[[^][]*\]\s*)?\.\s*(?:load|store|fetch_\w+|exchange|"
    r"compare_exchange\w*|wait|notify_\w+)\s*\(")

_ANN_TOKEN = re.compile(r"GDISIM-(SHARED|SERIAL-OK)(?![\w-])")

_CTRL_NAMES = {"if", "for", "while", "switch", "catch", "return", "sizeof",
               "alignof", "alignas", "decltype", "static_assert", "assert",
               "operator", "new", "delete", "defined", "co_await",
               "co_return", "co_yield"}

_KEYWORD_STARTS = re.compile(
    r"^(?:using|typedef|friend|template|extern|class|struct|enum|union|"
    r"namespace|return|if|else|for|while|switch|case|break|continue|"
    r"public|private|protected|goto|do|static_assert)\b")


# --------------------------------------------------------------------------
# Annotations
# --------------------------------------------------------------------------


def _annotations_on(raw_line: str) -> list[tuple[str, str | None]]:
    """(kind, reason) for each annotation on `raw_line`. A token counts as
    an annotation when a ``:`` introduces its reason or when nothing but
    whitespace / comment-close follows it; trailing prose without a colon
    is a mention, not an annotation."""
    out = []
    for m in _ANN_TOKEN.finditer(raw_line):
        rest = raw_line[m.end():]
        cm = re.match(r"\s*:\s*([^\n]*)", rest)
        if cm:
            out.append((m.group(1), cm.group(1)))
        elif not re.search(r"\w", rest.replace("*/", " ")):
            out.append((m.group(1), None))
    return out


def _annotated(raw_lines: list[str], lineno: int, kind: str) -> bool:
    """Whether line `lineno` (1-based) or the line above carries a
    GDISIM-<kind> annotation. Reason presence is audited separately."""
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(raw_lines):
            if any(k == kind for k, _r in _annotations_on(raw_lines[ln - 1])):
                return True
    return False


def _annotation_reason_findings(raw_lines: list[str], rel: str) -> list[dict]:
    rule = "gdisim-isolation-annotation-no-reason"
    findings = []
    for lineno, raw in enumerate(raw_lines, start=1):
        for _kind, reason in _annotations_on(raw):
            text = (reason or "").replace("*/", " ")
            if re.search(r"\w", text):
                continue
            findings.append({
                "file": rel,
                "line": lineno,
                "rule": rule,
                "message": RULES[rule]["message"],
                "snippet": raw.strip()[:160],
                "suppressed": common.line_suppressed(raw_lines, lineno, rule),
            })
    return findings


# --------------------------------------------------------------------------
# Lexical structure: classes, methods, scopes
# --------------------------------------------------------------------------


def _class_regions(code: str):
    """Yield (name, bases, body_start, body_end) for every class/struct
    definition found lexically (including nested ones)."""
    for m in re.finditer(
            r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?"
            r"(:[^{;]*)?\{", code):
        name = m.group(1)
        bases = []
        if m.group(2):
            for tok in re.findall(r"[A-Za-z_][\w:]*",
                                  common.strip_angles(m.group(2))):
                if tok in ("public", "private", "protected", "virtual"):
                    continue
                bases.append(tok.split("::")[-1])
        bo = m.end() - 1
        be = common.balanced(code, bo, "{", "}")
        if be > 0:
            yield name, bases, bo + 1, be - 1


def _methods_in(code: str, start: int, end: int) -> dict:
    """Map method name -> list of (params_text, body_start, body_end) for
    method definitions lexically inside code[start:end]."""
    out: dict[str, list] = {}
    sig = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
    tail_re = re.compile(
        r"\s*(?:const|noexcept|final|override|mutable|&&?|"
        r"->\s*[\w:<>,\s*&]+?)*\s*\{")
    i = start
    while i < end:
        m = sig.search(code, i, end)
        if not m:
            break
        name = m.group(1)
        po = m.end() - 1
        pe = common.balanced(code, po)
        if pe < 0 or pe > end:
            i = m.end()
            continue
        if name in _CTRL_NAMES:
            i = pe
            continue
        mt = tail_re.match(code, pe, min(pe + 160, end + 1))
        if mt and mt.end() <= end + 1:
            bo = mt.end() - 1
            be = common.balanced(code, bo, "{", "}")
            if 0 < be <= end + 1:
                out.setdefault(name, []).append((code[po + 1:pe - 1], bo, be))
                i = be
                continue
        i = pe
    return out


def _ns_scope_mask(code_lines: list[str]) -> list[bool]:
    """For each line, whether its start sits at namespace (or global) scope:
    every enclosing brace is a namespace / extern-linkage block and no
    parenthesis is open (a multi-line parameter list is not a declaration
    site)."""
    mask = []
    stack: list[str] = []
    buf = ""
    paren = 0
    for line in code_lines:
        mask.append(all(k == "ns" for k in stack) and paren == 0)
        paren = max(0, paren + line.count("(") - line.count(")"))
        for ch in line:
            if ch == "{":
                if re.search(r"\bnamespace\b", buf) or "extern" in buf:
                    kind = "ns"
                elif re.search(r"\b(?:class|struct|union|enum)\b", buf):
                    kind = "type"
                else:
                    kind = "other"
                stack.append(kind)
                buf = ""
            elif ch == "}":
                if stack:
                    stack.pop()
                buf = ""
            elif ch == ";":
                buf = ""
            else:
                buf += ch
        buf += " "
    return mask


def _decl_part(code_line: str) -> str | None:
    """Declaration portion (before any initializer) when the line plausibly
    declares a variable; None for functions / keywords / non-decls."""
    s = code_line.strip()
    if not s or s.startswith("#") or not s.endswith(";"):
        return None
    if _KEYWORD_STARTS.match(s):
        return None
    decl = re.split(r"[={]", common.strip_angles(s[:-1]), 1)[0]
    if "(" in decl or ")" in decl:
        return None
    toks = re.findall(r"[A-Za-z_]\w*", decl)
    if len(toks) < 2:
        return None
    return decl


# --------------------------------------------------------------------------
# Rule passes
# --------------------------------------------------------------------------


def _finding(rel, lineno, rule, raw_lines):
    return {
        "file": rel,
        "line": lineno,
        "rule": rule,
        "message": RULES[rule]["message"],
        "snippet": raw_lines[lineno - 1].strip()[:160],
        "suppressed": common.line_suppressed(raw_lines, lineno, rule),
    }


def _cross_agent_findings(code, start, end, offsets, raw_lines, rel,
                          agent_types) -> list[dict]:
    """gdisim-cross-agent-write inside one agent-derived class region."""
    findings = []
    region = code[start:end]

    # Variables (fields, params, locals) declared as pointer/reference to an
    # agent-derived type anywhere in the region.
    agent_vars = set()
    for m in re.finditer(
            r"\b(?:const\s+)?([A-Za-z_]\w*)\s*[*&]+\s*(?:const\s+)?"
            r"([A-Za-z_]\w*)\s*[=;,)\[{:]", region):
        if m.group(1) in agent_types:
            agent_vars.add(m.group(2))
    agent_vars.discard("this")
    if not agent_vars:
        return findings

    methods = _methods_in(code, start, end)
    closure = set(n for n in methods if n in TICK_ENTRIES)
    changed = True
    while changed:
        changed = False
        for name in list(methods):
            if name in closure:
                continue
            for cname in closure.copy():
                for _params, bo, be in methods[cname]:
                    if re.search(r"\b" + re.escape(name) + r"\s*\(",
                                 code[bo:be]):
                        closure.add(name)
                        changed = True
                        break
                if name in closure:
                    break

    var_alt = "|".join(sorted(re.escape(v) for v in agent_vars))
    write_re = re.compile(
        r"\b(?:" + var_alt + r")"
        r"(?:\s*(?:->|\.)\s*[A-Za-z_]\w*(?:\[[^][]*\])?)+\s*" + _ASSIGN_OP)
    pre_re = re.compile(
        r"(?:\+\+|--)\s*(?:" + var_alt + r")\s*(?:->|\.)")

    rule = "gdisim-cross-agent-write"
    seen = set()
    for name in closure:
        for _params, bo, be in methods[name]:
            body = code[bo:be]
            for m in list(write_re.finditer(body)) + list(pre_re.finditer(body)):
                lineno = common.line_of(offsets, bo + m.start())
                if lineno in seen:
                    continue
                seen.add(lineno)
                findings.append(_finding(rel, lineno, rule, raw_lines))
    return findings


def _serial_only_findings(code, start, end, offsets, raw_lines, rel) -> list[dict]:
    """gdisim-serial-only inside one serial-gated class region."""
    region = code[start:end]
    if not (re.search(r"\bvoid\s+set_serial\s*\(", region)
            or re.search(r"\b(?:engine_)?serial_\s*[={;]", region)):
        return []

    # Members referenced inside branches conditioned on the serial gate —
    # exactly the state whose synchronization the fast path drops.
    gated: set[str] = set()
    for m in re.finditer(r"\bif\s*\(", region):
        pe = common.balanced(region, m.end() - 1)
        if pe < 0 or not _GATE.search(region[m.end():pe - 1]):
            continue
        j = pe
        while j < len(region) and region[j] in " \t\n":
            j += 1
        if j < len(region) and region[j] == "{":
            be = common.balanced(region, j, "{", "}")
            blk = region[j:be] if be > 0 else region[j:j + 200]
        else:
            semi = region.find(";", j)
            blk = region[j:semi + 1] if semi >= 0 else region[j:j + 200]
        gated |= set(re.findall(r"\b[A-Za-z]\w*_(?![\w])", blk))
    gated -= {"serial_", "engine_serial_"}
    if not gated:
        return []

    findings = []
    rule = "gdisim-serial-only"
    methods = _methods_in(code, start, end)
    for name, insts in methods.items():
        if name == "set_serial":
            continue
        for _params, bo, be in insts:
            body = code[bo:be]
            if _GATE.search(body) or _LOCKED.search(body):
                continue
            sig_line = common.line_of(offsets, bo)
            if _annotated(raw_lines, sig_line, "SERIAL-OK"):
                continue
            flagged = set()
            for gm in sorted(gated):
                for m in re.finditer(r"\b" + re.escape(gm) + r"(?![\w])",
                                     body):
                    if _ATOMIC_ACCESS.match(body, m.end()):
                        continue
                    lineno = common.line_of(offsets, bo + m.start())
                    if _annotated(raw_lines, lineno, "SERIAL-OK"):
                        continue
                    if (lineno, gm) in flagged:
                        continue
                    flagged.add((lineno, gm))
                    findings.append(_finding(rel, lineno, rule, raw_lines))
                    break  # one finding per member per method
    return findings


def _unguarded_shared_findings(code_lines, raw_lines, rel) -> list[dict]:
    findings = []
    rule = "gdisim-unguarded-shared"
    mask = _ns_scope_mask(code_lines)
    for lineno, line in enumerate(code_lines, start=1):
        s = line.strip()
        is_static = bool(re.match(r"(?:inline\s+)?static\s", s))
        if not is_static and not mask[lineno - 1]:
            continue
        if re.search(r"\b(?:const|constexpr|constinit|thread_local)\b"
                     r"|std::\s*atomic|GDISIM_", line):
            continue
        if _SYNC_ANYWHERE.search(line):
            continue  # the primitive *is* the guard; raw-sync audits it
        decl = _decl_part(s)
        if decl is None:
            continue
        if not is_static and not mask[lineno - 1]:
            continue
        if _annotated(raw_lines, lineno, "SHARED"):
            continue
        findings.append(_finding(rel, lineno, rule, raw_lines))
    return findings


def _thread_local_findings(code_lines, raw_lines, rel) -> list[dict]:
    """gdisim-thread-local-buffer: every thread_local declaration must be
    sanctioned. Unlike raw-sync this applies inside src/core/ too — the
    inbox shard id lives there — because per-thread storage that another
    thread consumes (say, at a phase barrier) is exactly the pattern the
    rule exists for."""
    findings = []
    rule = "gdisim-thread-local-buffer"
    for lineno, line in enumerate(code_lines, start=1):
        s = line.strip()
        if s.startswith("#") or not re.search(r"\bthread_local\b", s):
            continue
        if _annotated(raw_lines, lineno, "SHARED"):
            continue
        findings.append(_finding(rel, lineno, rule, raw_lines))
    return findings


def _raw_sync_findings(code_lines, raw_lines, rel) -> list[dict]:
    findings = []
    rule = "gdisim-raw-sync"
    for lineno, line in enumerate(code_lines, start=1):
        s = line.strip()
        if s.startswith("#") or _KEYWORD_STARTS.match(s):
            continue
        if not _SYNC_DECL.match(s):
            continue
        if re.search(r"lock_guard|unique_lock|scoped_lock|shared_lock", s):
            continue
        if re.search(r"[>)]\s*[*&]|&\s*[A-Za-z_]\w*\s*=", s):
            continue  # reference/pointer binding, not a new primitive
        if _annotated(raw_lines, lineno, "SHARED"):
            continue
        findings.append(_finding(rel, lineno, rule, raw_lines))
    return findings


# --------------------------------------------------------------------------
# Class hierarchy (which types are Agents)
# --------------------------------------------------------------------------


def build_hierarchy_regex(files: list[str]) -> dict[str, list[str]]:
    bases: dict[str, list[str]] = {}
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        code_lines, _raw = common.strip_comments(text)
        code = "\n".join(code_lines)
        for name, bs, _s, _e in _class_regions(code):
            bases.setdefault(name, [])
            bases[name].extend(b for b in bs if b not in bases[name])
    return bases


def agent_closure(bases: dict[str, list[str]]) -> set[str]:
    agents = {"Agent"}
    changed = True
    while changed:
        changed = False
        for name, bs in bases.items():
            if name not in agents and any(b in agents for b in bs):
                agents.add(name)
                changed = True
    return agents


def build_hierarchy_libclang(files: list[str]) -> dict[str, list[str]]:
    """AST-assisted hierarchy: resolves base specifiers structurally, so
    typedef'd or qualified bases still land in the Agent closure."""
    from clang import cindex
    from clang.cindex import CursorKind

    index = cindex.Index.create()
    bases: dict[str, list[str]] = {}

    def walk(cursor, path):
        if cursor.kind in (CursorKind.CLASS_DECL, CursorKind.STRUCT_DECL,
                           CursorKind.CLASS_TEMPLATE):
            name = cursor.spelling
            if name:
                bs = bases.setdefault(name, [])
                for child in cursor.get_children():
                    if child.kind == CursorKind.CXX_BASE_SPECIFIER:
                        base = child.type.spelling.split("<")[0]
                        base = base.split("::")[-1].strip()
                        if base and base not in bs:
                            bs.append(base)
        for child in cursor.get_children():
            if child.location.file and child.location.file.name == path:
                walk(child, path)

    for path in files:
        tu = index.parse(path, args=["-std=c++20", "-Isrc"])
        walk(tu.cursor, path)
    return bases


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def scan_file(path: str, rel: str, agent_types: set[str]) -> list[dict]:
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    code_lines, raw_lines = common.strip_comments(text)
    code = "\n".join(code_lines)
    offsets = [0]
    for line in code_lines:
        offsets.append(offsets[-1] + len(line) + 1)

    findings = common.nolint_reason_findings(raw_lines, rel)
    findings += _annotation_reason_findings(raw_lines, rel)
    findings += _unguarded_shared_findings(code_lines, raw_lines, rel)
    findings += _thread_local_findings(code_lines, raw_lines, rel)

    norm = rel.replace(os.sep, "/")
    if not norm.startswith("src/core/"):
        findings += _raw_sync_findings(code_lines, raw_lines, rel)

    for name, bases, start, end in _class_regions(code):
        if name in agent_types:
            findings += _cross_agent_findings(
                code, start, end, offsets, raw_lines, rel, agent_types)
        findings += _serial_only_findings(
            code, start, end, offsets, raw_lines, rel)
    return findings


def analyze(files: list[str], root: str,
            hierarchy: dict[str, list[str]] | None = None) -> list[dict]:
    bases = hierarchy if hierarchy is not None else build_hierarchy_regex(files)
    agent_types = agent_closure(bases)
    findings: list[dict] = []
    for path in files:
        rel = os.path.relpath(path, root)
        findings.extend(scan_file(path, rel, agent_types))
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="gdisim concurrency-isolation analyzer")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to scan (default: src/)")
    parser.add_argument("--json", metavar="FILE",
                        help="write a machine-readable report ('-' for stdout)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--backend", choices=("auto", "regex", "libclang"),
                        default="auto")
    parser.add_argument("--include-suppressed", action="store_true")
    parser.add_argument("--root", default=None,
                        help="repo root for relative paths (default: auto)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, spec in sorted(RULES.items()):
            print(f"{rule}: {spec['message']}")
        return 0

    root = args.root or common.default_root(__file__)
    paths = args.paths or ["src"]
    files = common.collect_sources(paths, root)
    if not files:
        print("gdisim_isolation: no C++ sources found under",
              ", ".join(paths), file=sys.stderr)
        return 2

    backend = args.backend
    if backend == "auto":
        try:
            from clang import cindex  # noqa: F401
            backend = "libclang"
        except Exception:
            backend = "regex"

    if backend == "libclang":
        try:
            findings = analyze(files, root,
                               hierarchy=build_hierarchy_libclang(files))
        except Exception:
            if args.backend == "libclang":
                raise
            backend = "regex"
            findings = analyze(files, root)
    else:
        findings = analyze(files, root)

    active = common.finish_report(findings, files, backend, args.json,
                                  args.include_suppressed)
    print("gdisim_isolation [%s]: %d files, %d active finding(s), "
          "%d suppressed"
          % (backend, len(files), len(active), len(findings) - len(active)),
          file=sys.stderr)
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
