"""Docs smoke check: executable README, non-dangling links.

Three gates, all cheap enough for every CI run:

1. Every fenced ``python`` code block in README.md is executed (one
   shared namespace per file, top to bottom), so the quickstart the
   README shows is the quickstart that actually runs.  Blocks fenced as
   ``bash``/``console``/anything else are skipped.
2. Every relative markdown link in README.md and docs/*.md must resolve
   to an existing file (anchors and absolute http(s)/mailto links are
   skipped), so refactors cannot silently strand the docs.
3. The knob tables of docs/SERVING.md match the code: every backticked
   name in the first column of the ``ModelServer(...)`` and
   ``register(...)`` tables is a parameter of the matching signature,
   and every parameter has a row — so a deleted knob cannot leave a
   stale row, and a new one cannot go undocumented.

Run:  PYTHONPATH=src python tools/check_docs.py
"""

import inspect
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FENCE_RE = re.compile(r"^```(\w*)\s*$")
# [text](target) — good enough for our docs; code spans are stripped
# before matching so `server.register("x", m)` never parses as a link.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN_RE = re.compile(r"`[^`]*`")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "#")
# (heading that opens the table's section, ModelServer method it documents)
KNOB_TABLES = (
    ("## `ModelServer(...)`", "__init__"),
    ("## `register(...)`", "register"),
)
NAME_RE = re.compile(r"`(\w+)`")


def python_blocks(path: Path):
    """Yield (start_line, source) for each fenced python block."""
    lines = path.read_text().splitlines()
    block, start, lang = None, 0, None
    for lineno, line in enumerate(lines, 1):
        fence = FENCE_RE.match(line.strip())
        if fence and block is None:
            block, start, lang = [], lineno + 1, fence.group(1).lower()
        elif line.strip() == "```" and block is not None:
            if lang == "python":
                yield start, "\n".join(block)
            block, lang = None, None
        elif block is not None:
            block.append(line)


def run_blocks(path: Path) -> int:
    namespace = {"__name__": "__docs__"}
    count = 0
    for start, source in python_blocks(path):
        count += 1
        print(
            f"  exec {path.relative_to(REPO)}:{start} "
            f"({len(source.splitlines())} lines)"
        )
        code = compile(source, f"{path.name}:{start}", "exec")
        exec(code, namespace)
    return count


def check_links(path: Path, errors: list) -> int:
    text = CODE_SPAN_RE.sub("", path.read_text())
    count = 0
    for target in LINK_RE.findall(text):
        if target.startswith(SKIP_SCHEMES):
            continue
        count += 1
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = (path.parent / rel).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO)}: dangling link -> {target}")
    return count


def table_names(text: str, heading: str) -> list:
    """Backticked names in the first column of the first table after ``heading``."""
    names, in_table = [], False
    for line in text.split(heading, 1)[1].splitlines():
        if line.startswith("|"):
            in_table = True
            names += NAME_RE.findall(line.split("|")[1])
        elif in_table:
            break
    return names


def check_knob_tables(errors: list) -> int:
    from repro.serving import ModelServer

    path = REPO / "docs" / "SERVING.md"
    text = path.read_text()
    count = 0
    for heading, method in KNOB_TABLES:
        where = f"{path.relative_to(REPO)} {heading.lstrip('# ')} table"
        if heading not in text:
            errors.append(f"{where}: heading not found")
            continue
        rows = table_names(text, heading)
        signature = inspect.signature(getattr(ModelServer, method))
        params = [p for p in signature.parameters if p != "self"]
        count += len(params)
        target = f"ModelServer.{method}"
        errors += [
            f"{where}: row `{n}` is not a parameter of {target}"
            for n in rows
            if n not in params
        ]
        errors += [
            f"{where}: parameter `{n}` of {target} has no row"
            for n in params
            if n not in rows
        ]
    return count


def main() -> int:
    doc_files = [REPO / "README.md"]
    doc_files += sorted((REPO / "docs").glob("*.md"))
    missing = [p for p in doc_files if not p.exists()]
    if missing:
        print(f"missing doc files: {missing}")
        return 1

    errors = []
    links = sum(check_links(p, errors) for p in doc_files)
    print(f"checked {links} relative links across {len(doc_files)} files")
    knobs = check_knob_tables(errors)
    print(f"checked {knobs} serving knobs against docs/SERVING.md")
    for err in errors:
        print(f"  FAIL {err}")

    executed = run_blocks(REPO / "README.md")
    if executed == 0:
        errors.append("README.md: no executable python block found")

    if errors:
        print(f"docs check FAILED ({len(errors)} problems)")
        return 1
    print(f"docs check ok: {executed} code blocks executed, {links} links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
