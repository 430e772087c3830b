#!/usr/bin/env python3
"""Public-surface census and non-test line count for this workspace.

Census (the default): which public items under `crates/*/src` does no
library, binary, example or benchmark code reach?

  1. Copy the tracked files to a temporary directory (the checkout is
     never edited).
  2. Rewrite every `pub fn`, `pub const`, `pub static` and named `pub`
     field in `crates/*/src` (not `crates/bench`) that sits outside a
     `#[cfg(test)]` item to `pub(crate)`.
  3. Build the workspace's libs, bins and examples, and `benchmark/`.
     Turn back to `pub` every item an E0624, E0603, E0364, E0616 or
     E0451 error points at; repeat until both build.
  4. Report rustc's `dead_code` warnings: each names an item only test
     code reaches (functions, fields and constants).

Each entry prints as `<path> <item>`: `Type::method`, `Type.field` or a
free name. Entries the project keeps on purpose are listed, each with a
class, in `.github/scripts/pub_allowlist.txt`; `--check` fails on any
entry missing from the list and on any listed entry the census no
longer finds.

`--lines` prints the non-test line count instead: every `.rs` file
under `crates/`, `src/`, `examples/` and `shims/` outside `tests/`
directories, minus every `#[cfg(test)]` item (attribute line included).

Usage:
  python3 .github/scripts/pub_census.py                # print the census
  python3 .github/scripts/pub_census.py --check        # compare with the allowlist
  python3 .github/scripts/pub_census.py --lines        # non-test line count

Set CARGO_TARGET_DIR to reuse a build directory between runs.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
ALLOWLIST = os.path.join(REPO, ".github", "scripts", "pub_allowlist.txt")
CLASSES = ("oracle", "probe", "driver", "memory-op", "baseline")
# A public function, constant, static or named field: what `privatize`
# rewrites. Group 1 is what follows `pub`.
PUB_ITEM = re.compile(
    r"\bpub(\s+(?:(?:const|unsafe|async)\s+)?fn\b"
    r"|\s+(?:const|static)\s+(?:mut\s+)?[A-Za-z_][A-Za-z0-9_]*\s*:"
    r"|\s+[A-Za-z_][A-Za-z0-9_]*\s*:(?!:))"
)
PRIVATE_ERRORS = ("E0624", "E0603", "E0364")
PRIVATE_FIELD_ERRORS = ("E0616", "E0451")
# "field `a` of struct `S` is private", "fields `a`, `b` and `c` of ...".
PRIVATE_FIELD = re.compile(r"fields? (.+?) of \w+ `([^`]+)` (?:is|are) private")


def scan(text):
    """Yields (offset, char) for each structural char ({ } ( ) [ ] ; ,)
    outside comments, strings and char literals."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if c == "/" and text.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    i += 1
            continue
        m = re.match(r'b?r(#*)"', text[i : i + 40]) if c in "br" else None
        if m and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            end = text.find('"' + m.group(1), i + m.end())
            i = n if end < 0 else end + 1 + len(m.group(1))
            continue
        if c == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            continue
        if c == "'":
            if text.startswith("\\", i + 1):
                i = text.find("'", i + 2) + 1
                continue
            if i + 2 < n and text[i + 2] == "'":
                i += 3
                continue
            i += 1  # a lifetime
            continue
        if c in "{}()[];,":
            yield i, c
        i += 1


def test_ranges(text):
    """Byte ranges [start, end) of every `#[cfg(test)]` item or statement,
    attribute included."""
    ranges = []
    for m in re.finditer(r"(?m)^[ \t]*#\[cfg\(test\)\]", text):
        start = m.start()
        if any(a <= start < b for a, b in ranges):
            continue
        depth, end = 0, len(text)
        for off, c in scan(text[m.end() :]):
            if c in "{([":
                depth += 1
            elif c in "})]":
                depth -= 1
                if depth == 0 and c == "}":
                    end = m.end() + off + 1
                    break
                if depth < 0:  # the enclosing block closed: a trailing item
                    end = m.end() + off
                    break
            elif depth == 0 and c in ";,":
                end = m.end() + off + 1
                break
        ranges.append((start, end))
    return ranges


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def tracked_files(*paths):
    """The files git tracks under `paths` (all of them when none); exits
    with one line when the repository is not a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "ls-files", "-z", "--", *paths],
            cwd=REPO, check=True, capture_output=True, text=True,
        )
    except (OSError, subprocess.CalledProcessError):
        sys.exit(f"pub_census.py: needs a git checkout; `git ls-files` failed in {REPO}")
    return [rel for rel in proc.stdout.split("\0") if rel]


def count_lines():
    total = 0
    for rel in tracked_files("crates", "src", "examples", "shims"):
        if not rel.endswith(".rs") or "/tests/" in "/" + rel:
            continue
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            text = f.read()
        lines = text.count("\n") + (0 if text.endswith("\n") or not text else 1)
        for a, b in test_ranges(text):
            lines -= line_of(text, b) - line_of(text, a) + 1
        total += lines
    return total


def rewritten_files(root):
    out = []
    for crate in sorted(os.listdir(os.path.join(root, "crates"))):
        src = os.path.join(root, "crates", crate, "src")
        if crate == "bench" or not os.path.isdir(src):
            continue
        for d, _, names in os.walk(src):
            out += [os.path.join(d, n) for n in names if n.endswith(".rs")]
    return sorted(out)


def privatize(path):
    """Rewrites `pub` functions, constants, statics and named fields
    outside test items to `pub(crate)`."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    tests = test_ranges(text)
    pieces, last = [], 0
    for m in PUB_ITEM.finditer(text):
        if any(a <= m.start() < b for a, b in tests):
            continue
        line_start = text.rfind("\n", 0, m.start()) + 1
        if text[line_start : m.start()].lstrip().startswith("//"):
            continue
        pieces += [text[last : m.start()], "pub(crate)" + m.group(1)]
        last = m.end()
    pieces.append(text[last:])
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(pieces))


def republicize(path, line, name):
    """Turns the `pub(crate)` function, constant or static `<name>`
    nearest at or below `line` back to `pub`. Returns whether it changed
    anything."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    pat = re.compile(
        r"\bpub\(crate\)(\s+(?:(?:const\s+|unsafe\s+|async\s+)*fn|(?:const|static)(?:\s+mut)?)\s+"
        + re.escape(name)
        + r")\b"
    )
    order = range(max(line - 1, 0), len(lines)) if line else range(len(lines))
    for i in order:
        if pat.search(lines[i]):
            lines[i] = pat.sub(r"pub\1", lines[i], count=1)
            with open(path, "w", encoding="utf-8") as f:
                f.write("\n".join(lines))
            return True
    return False


def cargo(root, args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_TERM_COLOR="never")
    env.pop("RUSTFLAGS", None)
    proc = subprocess.run(
        ["cargo", "build", "--offline", "--message-format=json"] + args,
        cwd=root, env=env, capture_output=True, text=True,
    )
    msgs = []
    for raw in proc.stdout.splitlines():
        try:
            msg = json.loads(raw)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-message":
            msgs.append(msg["message"])
    return proc.returncode, msgs, proc.stderr


def spans(diag):
    yield from diag.get("spans", [])
    for child in diag.get("children", []):
        yield from spans(child)


def abs_span(root, span):
    path = span["file_name"]
    return os.path.realpath(path if os.path.isabs(path) else os.path.join(root, path))


def republicize_field(candidates, owner, field):
    """Turns field `field` of every `struct <owner>` among `candidates`
    back to `pub`. Returns whether it changed anything."""
    decl = re.compile(r"\bstruct\s+" + re.escape(owner) + r"\b")
    pat = re.compile(r"\bpub\(crate\)(\s+" + re.escape(field) + r"\s*:)")
    changed = False
    for path in candidates:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        hits = []
        for m in decl.finditer(text):
            body = None
            for off, c in scan(text[m.end() :]):
                if body is None and c in "(;":
                    break  # a tuple or unit struct
                if c == "{" and body is None:
                    body = m.end() + off
                elif c == "}":
                    hit = pat.search(text, body, m.end() + off)
                    hits += [hit] if hit else []
                    break
        for hit in reversed(hits):
            text = text[: hit.start()] + "pub" + hit.group(1) + text[hit.end() :]
        if hits:
            changed = True
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
    return changed


def fix_privacy(root, msgs, candidates):
    """Republicizes what each privacy error points at; returns the count."""
    fixed = set()
    for diag in msgs:
        code = (diag.get("code") or {}).get("code")
        if code in PRIVATE_FIELD_ERRORS:
            m = PRIVATE_FIELD.search(diag["message"])
            if not m:
                sys.exit(f"census: cannot read {code}: {diag['rendered']}")
            owner = re.sub(r"<.*", "", m.group(2)).split("::")[-1]
            for field in re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", m.group(1)):
                if (owner, field) in fixed:
                    continue
                if not republicize_field(candidates, owner, field):
                    sys.exit(f"census: cannot resolve {code}: {diag['rendered']}")
                fixed.add((owner, field))
            continue
        if code not in PRIVATE_ERRORS:
            continue
        m = re.search(r"`([A-Za-z_][A-Za-z0-9_]*)`", diag["message"])
        if not m:
            continue
        name = m.group(1)
        where = [(abs_span(root, s), s["line_start"]) for s in spans(diag)]
        if any((path, line, name) in fixed for path, line in where):
            continue  # another use of a function already turned back
        for path, line in where:
            if path in candidates and republicize(path, line, name):
                fixed.add((path, line, name))
                break
        else:
            # A re-export (E0364) points at the `use`: search the crate.
            crate_src = where[0][0].split("/src/")[0] + "/src/"
            hits = [p for p in candidates if p.startswith(crate_src) and republicize(p, 0, name)]
            if not hits:
                sys.exit(f"census: cannot resolve {code}: {diag['rendered']}")
            fixed.add((where[0][0], where[0][1], name))
    return len(fixed)


def enclosing_type(text, offset):
    """The type of the innermost `impl`, `struct` or `enum` block around
    `offset`, or None."""
    stack, header_start = [], 0
    for off, c in scan(text[:offset]):
        if c == "{":
            stack.append(text[header_start:off])
            header_start = off + 1
        elif c == "}":
            if stack:
                stack.pop()
            header_start = off + 1
        elif c == ";":
            header_start = off + 1
    for header in reversed(stack):
        h = re.sub(r"//[^\n]*", "", header)
        h = re.sub(r"#\[[^\]]*\]", "", h).strip()
        m = re.search(r"\bimpl\b(?:\s*<.*?>)?\s+(?:.*?\bfor\s+)?([A-Za-z_][A-Za-z0-9_:]*)", h, re.S)
        if m and re.match(r"(pub(\(crate\))?\s+)?(unsafe\s+)?impl\b", h):
            return m.group(1).split("::")[-1]
        m = re.search(r"\b(?:struct|enum|union)\s+([A-Za-z_][A-Za-z0-9_]*)", h)
        if m:
            return m.group(1)
    return None


def census(target):
    tmp = tempfile.mkdtemp(prefix="pub_census.")
    try:
        root = os.path.join(tmp, "repo")
        for rel in tracked_files():
            src = os.path.join(REPO, rel)
            if not os.path.isfile(src):
                continue
            dst = os.path.join(root, rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)
        candidates = [os.path.realpath(p) for p in rewritten_files(root)]
        for path in candidates:
            privatize(path)
        builds = [
            ["--workspace", "--lib", "--bins", "--examples", "--keep-going"],
            ["--manifest-path", "benchmark/Cargo.toml", "--keep-going"],
        ]
        rounds = 0
        while True:
            progress, failed, warnings = 0, False, []
            for args in builds:
                rounds += 1
                code, msgs, stderr = cargo(root, args, target)
                n = fix_privacy(root, msgs, set(candidates))
                progress += n
                if code != 0:
                    failed = True
                    if n == 0:
                        errs = [d["rendered"] for d in msgs if d["level"] == "error"]
                        sys.exit("census: build failed:\n" + ("".join(errs) or stderr))
                    break
                warnings = warnings or msgs
            if not failed and not progress:
                break
        print(f"census: {rounds} build rounds", file=sys.stderr)
        entries = set()
        for diag in warnings:
            if (diag.get("code") or {}).get("code") != "dead_code":
                continue
            for span in diag["spans"]:
                if not span["is_primary"]:
                    continue
                path = abs_span(root, span)
                rel = os.path.relpath(path, root)
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                lines = text.split("\n")
                offset = sum(len(l) + 1 for l in lines[: span["line_start"] - 1])
                offset += span["column_start"] - 1
                name = span["text"][0]["text"][
                    span["text"][0]["highlight_start"] - 1 : span["text"][0]["highlight_end"] - 1
                ]
                owner = enclosing_type(text, offset)
                sep = "." if "field" in diag["message"] else "::"
                entries.add(f"{rel} {owner}{sep}{name}" if owner else f"{rel} {name}")
        return sorted(entries)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def read_allowlist():
    listed = {}
    with open(ALLOWLIST, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in CLASSES:
                sys.exit(f"{ALLOWLIST}:{n}: want `<class> <path> <item>`, class one of {CLASSES}")
            listed[f"{parts[1]} {parts[2]}"] = parts[0]
    return listed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--lines", action="store_true", help="print the non-test line count")
    ap.add_argument("--check", action="store_true", help="compare the census with the allowlist")
    args = ap.parse_args()
    if args.lines:
        print(count_lines())
        return 0
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, "target", "pub_census")
    entries = census(os.path.abspath(target))
    if not args.check:
        print("\n".join(entries))
        return 0
    listed = read_allowlist()
    new = [e for e in entries if e not in listed]
    gone = [e for e in listed if e not in set(entries)]
    for e in new:
        print(f"not on the allowlist (give it a non-test caller, make it private or delete it): {e}")
    for e in gone:
        print(f"listed but no longer found (remove it from the allowlist): {listed[e]} {e}")
    print(f"census: {len(entries)} entries, {len(new)} new, {len(gone)} stale")
    return 1 if new or gone else 0


if __name__ == "__main__":
    sys.exit(main())
