"""Docs currency checker (``python -m repro.lint.docs``).

The CI ``docs`` job used to assert one thing: every file under
``docs/`` is linked from the README.  That catches orphaned documents
but none of the ways docs actually rot — links to renamed anchors,
references to modules that moved, paths that were true three PRs ago.
This checker makes those failures build failures:

* **Coverage** — every file in ``docs/`` is linked from ``README.md``
  (the original check).

* **Relative links resolve** — ``[text](docs/FOO.md)`` and friends must
  point at files that exist, resolved against the linking document.
  External links (``http(s)://``, ``mailto:``) are not validated.

* **Anchors resolve** — ``[text](#section)`` and
  ``[text](FILE.md#section)`` must name a real heading in the target
  document.  Headings are slugified the way GitHub does (lowercase,
  punctuation stripped, spaces to hyphens, ``-N`` suffixes for
  duplicates), so the check agrees with what actually renders.

* **Code references exist** — an inline-code token that looks like a
  repo path (contains ``/`` and ends in a known source extension, e.g.
  ```src/repro/net/topology.py``` or ```repro/perf/counters.py```) must
  exist, tried verbatim from the repo root and under ``src/``.  Naming
  a module in prose is a promise the module is there.

Fenced code blocks are skipped entirely: example output and shell
transcripts are not claims about the tree.  The checker is stdlib-only
and, like the rest of :mod:`repro.lint`, mypy ``--strict``-clean.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: Inline-code tokens ending in one of these are treated as repo-path
#: claims and must exist on disk.
PATH_EXTENSIONS = (".py", ".md", ".json", ".yml", ".yaml", ".toml", ".cfg")

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_FENCE_RE = re.compile(r"^(```|~~~)")
_PATH_TOKEN_RE = re.compile(r"^[\w./\-]+$")


class Finding(NamedTuple):
    """One broken claim: ``file:line  message``."""

    file: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.file}:{self.line}  {self.message}"


def _doc_lines(text: str) -> Iterator[Tuple[int, str]]:
    """(1-based line number, line) pairs with fenced code blocks elided."""
    in_fence = False
    for number, line in enumerate(text.splitlines(), start=1):
        if _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield number, line


def _github_slug(heading: str, seen: Dict[str, int]) -> str:
    """Slugify a heading the way GitHub's renderer does."""
    # Inline markup doesn't survive into the anchor: strip code ticks,
    # emphasis markers and link syntax, keeping the visible text.
    text = heading.strip()
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = text.replace("`", "").replace("*", "").replace("_", " ")
    slug = "".join(
        ch for ch in text.lower() if ch.isalnum() or ch in (" ", "-")
    ).replace(" ", "-")
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def _anchors_of(text: str) -> List[str]:
    """Every heading anchor a document exposes, in order."""
    seen: Dict[str, int] = {}
    anchors: List[str] = []
    for _, line in _doc_lines(text):
        match = _HEADING_RE.match(line)
        if match:
            anchors.append(_github_slug(match.group(2), seen))
    return anchors


def _looks_like_path(token: str) -> bool:
    return (
        "/" in token
        and token.endswith(PATH_EXTENSIONS)
        and _PATH_TOKEN_RE.match(token) is not None
    )


def _path_exists(root: Path, token: str) -> bool:
    candidate = token.lstrip("/")
    return (root / candidate).exists() or (root / "src" / candidate).exists()


class _Doc(NamedTuple):
    path: Path      # absolute
    rel: str        # repo-relative, for findings
    text: str


def _load_docs(root: Path) -> List[_Doc]:
    paths = [root / "README.md"]
    docs_dir = root / "docs"
    if docs_dir.is_dir():
        paths.extend(sorted(docs_dir.glob("*.md")))
    return [
        _Doc(path, str(path.relative_to(root)), path.read_text())
        for path in paths if path.is_file()
    ]


def check_docs(root: Path) -> List[Finding]:
    """Run every check; returns findings (empty = docs are current)."""
    findings: List[Finding] = []
    docs = _load_docs(root)
    anchors = {doc.rel: _anchors_of(doc.text) for doc in docs}
    readme = next((doc for doc in docs if doc.rel == "README.md"), None)

    # 1) Coverage: every docs/ file is linked from the README.
    docs_dir = root / "docs"
    if readme is not None and docs_dir.is_dir():
        for path in sorted(docs_dir.iterdir()):
            if path.is_file() and f"docs/{path.name}" not in readme.text:
                findings.append(Finding(
                    "README.md", 1,
                    f"docs/{path.name} is not linked from README.md"))

    for doc in docs:
        base = doc.path.parent
        for number, line in _doc_lines(doc.text):
            # 2+3) Markdown links: file part resolves, anchor part exists.
            for match in _LINK_RE.finditer(line):
                target = match.group(1)
                if "://" in target or target.startswith("mailto:"):
                    continue
                file_part, _, anchor = target.partition("#")
                if file_part:
                    resolved = (base / file_part).resolve()
                    if not resolved.exists():
                        findings.append(Finding(
                            doc.rel, number,
                            f"broken link: {target} "
                            f"({file_part} does not exist)"))
                        continue
                    try:
                        target_rel = str(resolved.relative_to(root))
                    except ValueError:
                        target_rel = ""
                else:
                    target_rel = doc.rel
                if anchor and target_rel:
                    target_anchors = anchors.get(target_rel)
                    if target_anchors is None and (root / target_rel).is_file():
                        target_anchors = _anchors_of(
                            (root / target_rel).read_text())
                        anchors[target_rel] = target_anchors
                    if target_anchors is not None and \
                            anchor not in target_anchors:
                        findings.append(Finding(
                            doc.rel, number,
                            f"broken anchor: {target} "
                            f"(no heading slugs to #{anchor} "
                            f"in {target_rel})"))
            # 4) Inline-code repo paths must exist.
            for match in _INLINE_CODE_RE.finditer(line):
                token = match.group(1).strip()
                if _looks_like_path(token) and not _path_exists(root, token):
                    findings.append(Finding(
                        doc.rel, number,
                        f"stale code reference: `{token}` "
                        f"(not found at repo root or under src/)"))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; exits non-zero when any doc claim is broken."""
    args = list(sys.argv[1:]) if argv is None else list(argv)
    root = Path(args[0]) if args else Path.cwd()
    findings = check_docs(root)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} broken doc reference(s)")
        return 1
    print("docs are linked and current (links, anchors, code refs OK)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
