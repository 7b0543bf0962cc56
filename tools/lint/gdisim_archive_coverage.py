#!/usr/bin/env python3
"""gdisim archive-coverage analyzer.

Proves, at lint time, that every non-static data member of every snapshotable
type is either threaded through the snapshot codec or explicitly declared
transient — the static complement to the runtime fingerprint equivalence
suite. PR 4's checkpoint/restore guarantee ("restore reproduces the
uninterrupted fingerprint bit-for-bit") silently dies the first time someone
adds a member and forgets to archive it; this tool turns that omission into a
CI failure at the exact field.

A type is *snapshotable* when it

  * declares or defines an ``archive*`` method (``archive_state``,
    ``archive_discipline``, ``archive_failure_state``, ...),
  * inherits from a snapshotable type (every ``Agent`` subclass), or
  * is taken by reference/pointer by an ``archive_*`` free function
    (``archive_stage_job(..., StageJob&)``).

For each snapshotable type the analyzer collects the non-static data members
and the set of members referenced inside every archive body attributed to the
type — its own ``archive*`` methods (inline or out-of-line) plus free
``archive_*`` functions taking it by reference, which covers the delegation
patterns in the tree (``member_.archive_state(ar)``, the
``Inbox::archive_state``/payload_fn shape, ``Base::archive_state(ar, reg)``).

Rules:

  gdisim-archive-missing-field        member neither referenced in any archive
                                      body nor annotated transient
  gdisim-archive-asymmetric           the save path and the load path of one
                                      archive body touch members / sections /
                                      delegates in different sequences
  gdisim-archive-transient-no-reason  an ARCHIVE-TRANSIENT annotation without
                                      a reason

Annotation: mark an intentionally-unarchived field with a structured comment
on its declaration line (or the line above)::

    double cache_ = 0.0;  // ARCHIVE-TRANSIENT: recomputed on first tick

The reason is mandatory — the annotation converts implicit knowledge ("this
is loop wiring / a cache / immutable config") into a checked declaration.
``// NOLINT(gdisim-archive-<rule>)`` suppressions work as in gdisim_lint.

Backends: prefers libclang (python bindings) when importable — structural
member/field resolution — and falls back to the same comment-stripping lexer
gdisim_lint uses. Both emit the same finding schema; ``--backend`` pins one.

Usage:
  gdisim_archive_coverage.py [paths...] [--json FILE] [--list-rules]
                             [--backend auto|regex|libclang] [--list-types]

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
    "gdisim-archive-missing-field": {
        "message": "field of a snapshotable type is neither archived nor "
        "declared transient: thread it through archive_state or annotate it "
        "with // ARCHIVE-TRANSIENT: <reason>",
    },
    "gdisim-archive-asymmetric": {
        "message": "archive body is asymmetric: the save and load paths "
        "touch members/sections/delegates in different sequences, which "
        "desynchronizes the byte stream on restore",
    },
    "gdisim-archive-transient-no-reason": {
        "message": "ARCHIVE-TRANSIENT without a reason: state why the field "
        "is intentionally not archived (// ARCHIVE-TRANSIENT: <reason>)",
    },
}

# Stream-advancing primitives. expect_equal and expect_below are deliberately
# absent: they are read-side validations that consume no bytes, so they may
# legitimately appear on only one path.
ARCHIVE_PRIMS = ("u8", "u32", "u64", "i64", "f64", "boolean", "str",
                 "size_value", "count", "section")

_TRANSIENT = re.compile(r"ARCHIVE-TRANSIENT(?!\w)(?:\s*:\s*(\S[^\n]*?))?\s*(?:\*/)?\s*$")

# Types never treated as archive-body owners when taken by reference.
_INFRA_TYPES = {"StateArchive", "HandlerRegistry", "JobCtxEncoder",
                "JobCtxDecoder", "Fn", "T", "Queue"}

_KEYWORD_STARTS = re.compile(
    r"^(?:using|typedef|friend|static|template|struct|class|enum|union|"
    r"return|if|else|for|while|switch|case|break|continue|explicit|virtual|"
    r"operator|public|private|protected|namespace|goto|do|extern)\b")


# --------------------------------------------------------------------------
# Small lexical helpers
# --------------------------------------------------------------------------


def _strip_angles(s: str) -> str:
    """Remove balanced <...> template-argument regions (handles nesting)."""
    out = []
    depth = 0
    for ch in s:
        if ch == "<":
            depth += 1
        elif ch == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def _balanced(text: str, start: int, open_ch: str = "(", close_ch: str = ")"):
    """Given text[start] == open_ch, return index one past the matching
    close_ch, or -1 when unbalanced."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def _line_of(offsets: list[int], pos: int) -> int:
    """1-based line number for a character offset (offsets = line starts)."""
    lo, hi = 0, len(offsets) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if offsets[mid] <= pos:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def _parse_field(code_line: str) -> str | None:
    """Field name when `code_line` (comment-stripped, at class-body depth)
    declares a non-static data member; None otherwise."""
    s = code_line.strip()
    if not s or s.startswith("#") or not s.endswith(";"):
        return None
    if _KEYWORD_STARTS.match(s):
        return None
    body = _strip_angles(s[:-1])
    # Declaration portion: everything before an initializer.
    decl = re.split(r"[={]", body, 1)[0]
    if "(" in decl or ")" in decl or ":" in decl.replace("::", ""):
        return None  # functions, member-init lists, bitfields, labels
    if "," in decl or "operator" in decl:
        return None  # wrapped parameter lists, operator decls
    decl = re.sub(r"\[[^\]]*\]", " ", decl)  # array extents
    toks = re.findall(r"[A-Za-z_]\w*", decl)
    toks = [t for t in toks if t not in ("const", "mutable", "volatile",
                                         "unsigned", "signed", "long",
                                         "short", "struct", "class")]
    if len(toks) < 2:
        # `unsigned servers_;`-style: the qualifier was the whole type.
        all_toks = re.findall(r"[A-Za-z_]\w*", decl)
        if len(all_toks) >= 2 and re.search(r"[*&\s]" + all_toks[-1] + r"\s*$", decl):
            return all_toks[-1]
        return None
    if not re.search(r"[*&\s]" + toks[-1] + r"\s*$", decl):
        return None
    return toks[-1]


# --------------------------------------------------------------------------
# File model (regex backend)
# --------------------------------------------------------------------------


class TypeInfo:
    def __init__(self, name: str, file: str, line: int):
        self.name = name
        self.file = file
        self.line = line
        self.bases: list[str] = []
        # fields: list of dicts {name, file, line}
        self.fields: list[dict] = []
        self.declares_archive = False
        # bodies: list of dicts {file, line, code, raw}
        self.bodies: list[dict] = []
        self.snapshotable = False


class ParsedFile:
    def __init__(self, path: str, rel: str):
        self.rel = rel
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        self.code_lines, self.raw_lines = common.strip_comments(text)
        self.code_text = "\n".join(self.code_lines)
        self.raw_text = "\n".join(self.raw_lines)
        self.offsets = [0]
        for cl in self.code_lines:
            self.offsets.append(self.offsets[-1] + len(cl) + 1)
        self.offsets.pop()


def _scan_regions(pf: ParsedFile) -> tuple[list[dict], list[int]]:
    """Brace-walk into struct/class regions, recording base-class lists.
    Returns (regions, line_depth); mirrors gdisim_lint._scan_type_regions
    with base-clause capture added."""
    regions: list[dict] = []
    open_stack: list[int | None] = []
    line_depth: list[int] = []
    pending = ""
    for line in pf.code_lines:
        line_depth.append(len(open_stack))
        for ch in line:
            if ch == "{":
                header = None
                intro = re.sub(r"\btemplate\s*<[^<>]*>", " ", pending)
                if not re.search(r"\benum\b", intro):
                    for m in re.finditer(r"\b(struct|class)\s+(?:alignas\s*\([^)]*\)\s*)?"
                                         r"([A-Za-z_]\w*)", intro):
                        header = m
                if header:
                    parent = next(
                        (i for i in reversed(open_stack) if i is not None), None)
                    bases: list[str] = []
                    tail = intro[header.end():]
                    bm = re.match(r"\s*(?:final\s*)?:\s*(.*)$", tail, re.S)
                    if bm:
                        for part in _strip_angles(bm.group(1)).split(","):
                            ids = re.findall(r"[A-Za-z_]\w*", part)
                            ids = [t for t in ids
                                   if t not in ("public", "private", "protected",
                                                "virtual", "final", "std")]
                            if ids:
                                bases.append(ids[-1])
                    regions.append({
                        "name": header.group(2),
                        "start": len(line_depth),
                        "end": None,
                        "depth": len(open_stack) + 1,
                        "parent": parent,
                        "bases": bases,
                    })
                    open_stack.append(len(regions) - 1)
                else:
                    open_stack.append(None)
                pending = ""
            elif ch == "}":
                if open_stack:
                    idx = open_stack.pop()
                    if idx is not None:
                        regions[idx]["end"] = len(line_depth)
                pending = ""
            elif ch == ";":
                pending = ""
            else:
                pending += ch
        pending += " "
    for r in regions:
        if r["end"] is None:
            r["end"] = len(pf.code_lines)
    return regions, line_depth


_ARCHIVE_FN = re.compile(r"(?:\b([A-Za-z_]\w*)\s*::\s*)?\b(archive\w*)\s*\(")


def _enclosing_region(regions: list[dict], line_depth: list[int],
                      lineno: int) -> dict | None:
    """Innermost struct/class region containing `lineno`."""
    best = None
    for r in regions:
        if r["start"] <= lineno <= r["end"]:
            if best is None or r["depth"] > best["depth"]:
                best = r
    return best


def _param_owner_types(params: str) -> list[str]:
    """Type names taken by reference/pointer in a free archive_* function's
    parameter list, excluding the codec infrastructure types."""
    owners = []
    depth = 0
    part = ""
    parts = []
    for ch in params:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(part)
            part = ""
        else:
            part += ch
    parts.append(part)
    for p in parts:
        if "&" not in p and "*" not in p:
            continue
        ids = re.findall(r"[A-Za-z_]\w*", _strip_angles(p.split("&")[0].split("*")[0]))
        ids = [t for t in ids if t not in ("const", "std", "gdisim")]
        if not ids:
            continue
        t = ids[-1]
        if t not in _INFRA_TYPES:
            owners.append(t)
    return owners


def _collect(pf: ParsedFile, types: dict[str, TypeInfo],
             free_bodies: list[dict]) -> None:
    """Populate `types` (fields, bases, inline archive bodies) and
    `free_bodies` (free archive_* functions with their owner types)."""
    regions, line_depth = _scan_regions(pf)

    for r in regions:
        qname = r["name"]
        ti = types.setdefault(qname, TypeInfo(qname, pf.rel, r["start"]))
        for b in r["bases"]:
            if b not in ti.bases:
                ti.bases.append(b)
        for lineno in range(r["start"], min(r["end"], len(pf.code_lines)) + 1):
            if line_depth[lineno - 1] != r["depth"]:
                continue
            name = _parse_field(pf.code_lines[lineno - 1])
            if name is not None:
                ti.fields.append({"name": name, "file": pf.rel, "line": lineno})

    for m in _ARCHIVE_FN.finditer(pf.code_text):
        pos = m.start()
        # Skip member-access calls (x.archive_state / x->archive_state) and
        # string-ish contexts; a declaration/definition is preceded by a
        # return-type token (or a :: qualifier handled by the regex itself).
        j = pos - 1
        while j >= 0 and pf.code_text[j] in " \t\n":
            j -= 1
        if j >= 0 and (pf.code_text[j] in ".(" or
                       (pf.code_text[j] == ">" and j > 0 and pf.code_text[j - 1] == "-")):
            continue
        if m.group(1) is None:
            if j < 0 or not (pf.code_text[j].isalnum() or pf.code_text[j] == "_"):
                continue  # expression-statement call, not a declaration
            prev_tok = re.search(r"([A-Za-z_]\w*)$", pf.code_text[:j + 1])
            if prev_tok and prev_tok.group(1) in ("return", "co_return", "new"):
                continue
        paren = pf.code_text.find("(", m.end() - 1)
        close = _balanced(pf.code_text, paren)
        if close < 0:
            continue
        params = pf.code_text[paren + 1:close - 1]
        k = close
        while k < len(pf.code_text):
            rest = pf.code_text[k:]
            tok = re.match(r"\s*(const|noexcept|override|final)\b", rest)
            if tok:
                k += tok.end()
                continue
            break
        rest = pf.code_text[k:].lstrip()
        k2 = len(pf.code_text) - len(rest)
        lineno = _line_of(pf.offsets, pos)
        region = _enclosing_region(regions, line_depth, lineno)
        is_def = rest.startswith("{")
        body_code = body_raw = None
        if is_def:
            bend = _balanced(pf.code_text, k2, "{", "}")
            if bend < 0:
                continue
            body_code = pf.code_text[k2:bend]
            body_raw = pf.raw_text[k2:bend]
        is_decl = rest.startswith(";") or is_def

        if m.group(1) is not None:
            owner = m.group(1)  # out-of-line definition Type::archive_x
            ti = types.setdefault(owner, TypeInfo(owner, pf.rel, lineno))
            ti.declares_archive = True
            if is_def:
                ti.bodies.append({"file": pf.rel, "line": lineno,
                                  "code": body_code, "raw": body_raw,
                                  "method": m.group(2)})
        elif region is not None and line_depth[lineno - 1] >= region["depth"] and is_decl:
            ti = types.setdefault(region["name"],
                                  TypeInfo(region["name"], pf.rel, region["start"]))
            ti.declares_archive = True
            if is_def:
                ti.bodies.append({"file": pf.rel, "line": lineno,
                                  "code": body_code, "raw": body_raw,
                                  "method": m.group(2)})
        elif region is None and is_decl:
            owners = _param_owner_types(params)
            if owners:
                free_bodies.append({"file": pf.rel, "line": lineno,
                                    "owners": owners, "code": body_code,
                                    "raw": body_raw, "method": m.group(2)})


def _collect_transients(pf: ParsedFile) -> dict[int, dict]:
    """line -> {reason|None, line}. An annotation applies to the field on its
    own line, or to the next line when the annotation line holds no code."""
    out = {}
    for lineno, raw in enumerate(pf.raw_lines, start=1):
        if "ARCHIVE-TRANSIENT" not in raw:
            continue
        comment = raw
        ci = raw.find("//")
        if ci >= 0:
            comment = raw[ci:]
        m = _TRANSIENT.search(comment.rstrip())
        reason = m.group(1) if m else None
        if reason is not None:
            reason = reason.strip()
        out[lineno] = {"reason": reason or None, "line": lineno}
    return out


# --------------------------------------------------------------------------
# Symmetry: write-path vs read-path event traces
# --------------------------------------------------------------------------

_COND = re.compile(r"\bif\s*\(\s*(!?)\s*ar\s*\.\s*(writing|reading)\s*\(\s*\)\s*\)")


def _block_extent(text: str, start: int) -> tuple[str, int]:
    """Content of the statement starting at text[start:] (either a braced
    block or a single statement up to ';'); returns (content, end_index)."""
    i = start
    while i < len(text) and text[i] in " \t\n":
        i += 1
    if i < len(text) and text[i] == "{":
        end = _balanced(text, i, "{", "}")
        if end < 0:
            return text[i + 1:], len(text)
        return text[i + 1:end - 1], end
    semi = text.find(";", i)
    if semi < 0:
        return text[i:], len(text)
    return text[i:semi + 1], semi + 1


def _select_path(body: str, mode: str) -> str:
    """Linearize `body` for one direction: keep common code, keep the branch
    that executes when the archive is in `mode` ('w'|'r'), drop the other."""
    out = []
    i = 0
    while True:
        m = _COND.search(body, i)
        if not m:
            out.append(body[i:])
            break
        out.append(body[i:m.start()])
        negated = m.group(1) == "!"
        which = m.group(2)
        then_content, after = _block_extent(body, m.end())
        else_content = ""
        em = re.match(r"\s*else\b", body[after:])
        if em:
            else_content, after2 = _block_extent(body, after + em.end())
            after = after2
        cond_true = (mode == "w") == (which == "writing")
        if negated:
            cond_true = not cond_true
        chosen = then_content if cond_true else else_content
        out.append(_select_path(chosen, mode))
        i = after
    return "".join(out)


_EVENT = re.compile(
    r"ar\s*\.\s*(" + "|".join(ARCHIVE_PRIMS) + r")\s*\(|"
    r"(?:[A-Za-z_]\w*\s*(?:\[[^\[\]]*\]\s*)?(?:\.|->)|[A-Za-z_]\w*\s*::\s*)?"
    r"\b(archive\w*)\s*\(")


def _trace(code: str, raw: str, fields: set[str]) -> list[tuple]:
    """Ordered archive events in `code` (one linearized path): primitives
    (with the member they touch, when it is a known field), section markers
    (labels recovered from `raw`), and archive calls.

    Archive calls are normalized to ("call", method) without the receiver:
    the save path often iterates a container (structured binding locals)
    while the load path indexes it (`stats_[key]`), so receiver spellings
    differ while the byte stream is identical."""
    events: list[tuple] = []
    for m in _EVENT.finditer(code):
        if m.group(1):  # ar.<prim>(...)
            prim = m.group(1)
            paren = code.find("(", m.end() - 1)
            close = _balanced(code, paren)
            if close < 0:
                continue
            if prim == "section":
                lit = re.search(r'"([^"]*)"', raw[paren:close])
                events.append(("section", lit.group(1) if lit else "?"))
                continue
            args = code[paren + 1:close - 1]
            ref = next((t for t in re.findall(r"[A-Za-z_]\w*", args)
                        if t in fields), None)
            events.append(("prim", prim, ref) if ref is not None
                          else ("prim", prim))
        else:  # any archive call: member, Base::, or free
            events.append(("call", m.group(2)))
    return events


def _first_divergence(a: list[tuple], b: list[tuple]) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


# --------------------------------------------------------------------------
# Analysis driver (regex backend)
# --------------------------------------------------------------------------


def analyze(files: list[str], root: str) -> tuple[list[dict], dict]:
    parsed = []
    types: dict[str, TypeInfo] = {}
    free_bodies: list[dict] = []
    for path in files:
        rel = os.path.relpath(path, root)
        pf = ParsedFile(path, rel)
        parsed.append(pf)
        _collect(pf, types, free_bodies)

    by_rel = {pf.rel: pf for pf in parsed}
    transients = {pf.rel: _collect_transients(pf) for pf in parsed}

    # Free archive_* functions mark their owner types snapshotable and
    # contribute their bodies to each owner's coverage text.
    for fb in free_bodies:
        for owner in fb["owners"]:
            ti = types.setdefault(owner, TypeInfo(owner, fb["file"], fb["line"]))
            ti.declares_archive = True
            if fb["code"] is not None:
                ti.bodies.append({"file": fb["file"], "line": fb["line"],
                                  "code": fb["code"], "raw": fb["raw"],
                                  "method": fb["method"]})

    # Snapshotable closure over inheritance.
    def snapshotable(name: str, seen: frozenset = frozenset()) -> bool:
        ti = types.get(name)
        if ti is None or name in seen:
            return False
        if ti.snapshotable or ti.declares_archive:
            ti.snapshotable = True
            return True
        if any(snapshotable(b, seen | {name}) for b in ti.bases):
            ti.snapshotable = True
            return True
        return False

    for name in list(types):
        snapshotable(name)

    findings: list[dict] = []

    def add(file: str, line: int, rule: str, detail: str) -> None:
        pf = by_rel.get(file)
        raw = pf.raw_lines[line - 1].strip() if pf and line <= len(pf.raw_lines) else ""
        findings.append({
            "file": file,
            "line": line,
            "rule": rule,
            "message": RULES[rule]["message"] + " [" + detail + "]",
            "snippet": raw[:160],
            "suppressed": bool(pf) and common.line_suppressed(pf.raw_lines, line, rule),
        })

    checked = 0
    for name in sorted(types):
        ti = types[name]
        if not ti.snapshotable or not ti.fields:
            continue
        checked += 1
        cover = "\n".join(b["code"] for b in ti.bodies)
        for f in ti.fields:
            ann = transients.get(f["file"], {})
            t = ann.get(f["line"]) or ann.get(f["line"] - 1)
            # A previous-line annotation must not have claimed that line's own
            # field declaration.
            if (t is not None and t["line"] == f["line"] - 1
                    and _parse_field(by_rel[f["file"]].code_lines[t["line"] - 1])):
                t = None
            if t is not None:
                if t["reason"] is None:
                    add(f["file"], t["line"], "gdisim-archive-transient-no-reason",
                        name + "::" + f["name"])
                continue
            if re.search(r"\b" + re.escape(f["name"]) + r"\b", cover):
                continue
            add(f["file"], f["line"], "gdisim-archive-missing-field",
                name + "::" + f["name"])

        field_names = {f["name"] for f in ti.fields}
        for b in ti.bodies:
            wcode = _select_path(b["code"], "w")
            rcode = _select_path(b["code"], "r")
            if wcode == rcode:
                continue  # no direction-dependent branches
            wraw = _select_path(b["raw"], "w")
            rraw = _select_path(b["raw"], "r")
            wt = _trace(wcode, wraw, field_names)
            rt = _trace(rcode, rraw, field_names)
            if wt != rt:
                i = _first_divergence(wt, rt)
                wd = wt[i] if i < len(wt) else "(end)"
                rd = rt[i] if i < len(rt) else "(end)"
                add(b["file"], b["line"], "gdisim-archive-asymmetric",
                    "%s::%s event %d: save=%s load=%s"
                    % (name, b["method"], i, wd, rd))

    stats = {"types_checked": checked}
    return findings, stats


# --------------------------------------------------------------------------
# libclang backend
# --------------------------------------------------------------------------


def analyze_libclang(files: list[str], root: str) -> tuple[list[dict], dict]:
    """AST-assisted pass: resolves fields and member references structurally,
    then reuses the regex symmetry/transient machinery (trace comparison is
    inherently textual). Falls back by raising when libclang misbehaves."""
    from clang import cindex
    from clang.cindex import CursorKind

    index = cindex.Index.create()
    regex_findings, stats = analyze(files, root)
    # Keep transient/asymmetry/no-reason findings from the lexer pass; replace
    # the missing-field set with AST-derived coverage.
    kept = [f for f in regex_findings if f["rule"] != "gdisim-archive-missing-field"]

    fields_by_type: dict[str, list[dict]] = {}
    refs_by_type: dict[str, set] = {}
    bases_by_type: dict[str, list[str]] = {}
    declares: set[str] = set()

    def record_body_refs(cursor, bucket: set) -> None:
        for c in cursor.walk_preorder():
            if c.kind in (CursorKind.MEMBER_REF_EXPR, CursorKind.MEMBER_REF,
                          CursorKind.DECL_REF_EXPR):
                if c.spelling:
                    bucket.add(c.spelling)

    for path in files:
        rel = os.path.relpath(path, root)
        tu = index.parse(path, args=["-std=c++20", "-I" + os.path.join(root, "src")])

        def walk(cursor):
            for c in cursor.get_children():
                if c.location.file and c.location.file.name != path:
                    continue
                if c.kind in (CursorKind.CLASS_DECL, CursorKind.STRUCT_DECL,
                              CursorKind.CLASS_TEMPLATE):
                    tname = c.spelling
                    for cc in c.get_children():
                        if cc.kind == CursorKind.CXX_BASE_SPECIFIER:
                            base = cc.type.spelling.split("<")[0].split("::")[-1]
                            bases_by_type.setdefault(tname, []).append(base)
                        elif cc.kind == CursorKind.FIELD_DECL:
                            fields_by_type.setdefault(tname, []).append({
                                "name": cc.spelling, "file": rel,
                                "line": cc.location.line})
                        elif (cc.kind == CursorKind.CXX_METHOD
                              and cc.spelling.startswith("archive")):
                            declares.add(tname)
                            if cc.is_definition():
                                record_body_refs(
                                    cc, refs_by_type.setdefault(tname, set()))
                elif (c.kind == CursorKind.CXX_METHOD
                      and c.spelling.startswith("archive")
                      and c.semantic_parent is not None):
                    tname = c.semantic_parent.spelling
                    declares.add(tname)
                    if c.is_definition():
                        record_body_refs(c, refs_by_type.setdefault(tname, set()))
                elif (c.kind == CursorKind.FUNCTION_DECL
                      and c.spelling.startswith("archive")):
                    owners = []
                    for arg in c.get_arguments():
                        t = arg.type.get_pointee().spelling or arg.type.spelling
                        t = t.replace("const", "").strip().split("<")[0].split("::")[-1]
                        if t and t not in _INFRA_TYPES:
                            owners.append(t)
                    for owner in owners:
                        declares.add(owner)
                        if c.is_definition():
                            record_body_refs(
                                c, refs_by_type.setdefault(owner, set()))
                walk(c)

        walk(tu.cursor)

    def snapshotable(name: str, seen: frozenset = frozenset()) -> bool:
        if name in declares:
            return True
        if name in seen:
            return False
        return any(snapshotable(b, seen | {name})
                   for b in bases_by_type.get(name, []))

    # Transient annotations come from the lexer pass (comments are invisible
    # to the AST).
    transient_lines: dict[str, dict[int, dict]] = {}
    raw_by_rel: dict[str, list[str]] = {}
    for path in files:
        rel = os.path.relpath(path, root)
        pf = ParsedFile(path, rel)
        transient_lines[rel] = _collect_transients(pf)
        raw_by_rel[rel] = pf.raw_lines

    for tname in sorted(fields_by_type):
        if not snapshotable(tname):
            continue
        refs = refs_by_type.get(tname, set())
        for f in fields_by_type[tname]:
            ann = transient_lines.get(f["file"], {})
            if ann.get(f["line"]) or ann.get(f["line"] - 1):
                continue
            if f["name"] in refs:
                continue
            raw_lines = raw_by_rel.get(f["file"], [])
            raw = raw_lines[f["line"] - 1].strip() if f["line"] <= len(raw_lines) else ""
            kept.append({
                "file": f["file"], "line": f["line"],
                "rule": "gdisim-archive-missing-field",
                "message": RULES["gdisim-archive-missing-field"]["message"]
                + " [" + tname + "::" + f["name"] + "]",
                "snippet": raw[:160],
                "suppressed": common.line_suppressed(
                    raw_lines, f["line"], "gdisim-archive-missing-field")
                if raw_lines else False,
            })
    return kept, stats


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="gdisim archive-coverage analyzer")
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
        print("gdisim_archive_coverage: no C++ sources found under",
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
            findings, stats = analyze_libclang(files, root)
        except Exception:
            if args.backend == "libclang":
                raise
            backend = "regex"
            findings, stats = analyze(files, root)
    else:
        findings, stats = analyze(files, root)

    active = common.finish_report(findings, files, backend, args.json,
                                  args.include_suppressed)
    print("gdisim_archive_coverage [%s]: %d files, %d snapshotable type(s), "
          "%d active finding(s), %d suppressed"
          % (backend, len(files), stats["types_checked"], len(active),
             len(findings) - len(active)), file=sys.stderr)
    return 1 if active else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
