"""The docs checker catches rot — and the live docs have none.

Fixture tests pin each failure mode (orphan doc, dead link, dead
anchor, stale code path); the final test runs the checker against the
real repository, which is the same gate CI's docs job applies.
"""

from pathlib import Path

from repro.lint.docs import _anchors_of, _github_slug, check_docs, main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _fixture(tmp_path, readme: str, docs: dict) -> Path:
    _write(tmp_path, "README.md", readme)
    for name, text in docs.items():
        _write(tmp_path, f"docs/{name}", text)
    return tmp_path


def test_clean_fixture_has_no_findings(tmp_path):
    root = _fixture(
        tmp_path,
        "# Repo\n\nSee [arch](docs/ARCH.md#design) and `src/mod/a.py`.\n",
        {"ARCH.md": "# Arch\n\n## Design\n\nBack to [readme](../README.md).\n"},
    )
    _write(root, "src/mod/a.py", "")
    assert check_docs(root) == []


def test_orphan_doc_is_reported(tmp_path):
    root = _fixture(tmp_path, "# Repo\n", {"LOST.md": "# Lost\n"})
    findings = check_docs(root)
    assert any("docs/LOST.md is not linked" in f.message for f in findings)


def test_dead_relative_link_is_reported(tmp_path):
    root = _fixture(
        tmp_path,
        "# Repo\n\n[gone](docs/MISSING.md) [here](docs/REAL.md)\n",
        {"REAL.md": "# Real\n"},
    )
    findings = check_docs(root)
    assert any("broken link: docs/MISSING.md" in f.message for f in findings)
    assert not any("REAL" in f.message for f in findings)


def test_dead_anchor_is_reported_cross_file_and_intra_doc(tmp_path):
    root = _fixture(
        tmp_path,
        "# Repo\n\n[ok](docs/A.md#real-section) [bad](docs/A.md#no-such)\n",
        {"A.md": "# A\n\n## Real section\n\n[self](#also-missing)\n"},
    )
    messages = [f.message for f in check_docs(root)]
    assert any("#no-such" in m for m in messages)
    assert any("#also-missing" in m for m in messages)
    assert not any("real-section" in m for m in messages)


def test_stale_code_reference_is_reported(tmp_path):
    root = _fixture(
        tmp_path,
        "# Repo\n\nUses `src/mod/real.py` and `src/mod/ghost.py`.\n",
        {},
    )
    _write(root, "src/mod/real.py", "")
    findings = check_docs(root)
    assert any("`src/mod/ghost.py`" in f.message for f in findings)
    assert not any("real.py" in f.message for f in findings)


def test_code_reference_resolves_through_src_prefix(tmp_path):
    root = _fixture(tmp_path, "# Repo\n\nSee `repro/net/topology.py`.\n", {})
    _write(root, "src/repro/net/topology.py", "")
    assert check_docs(root) == []


def test_fenced_blocks_are_not_claims(tmp_path):
    root = _fixture(
        tmp_path,
        "# Repo\n\n```bash\ncat src/not/a/real/file.py\n"
        "# [fake](docs/NOPE.md)\n```\n",
        {},
    )
    assert check_docs(root) == []


def test_github_slugs_match_renderer_conventions():
    seen = {}
    assert _github_slug("Quick Start", seen) == "quick-start"
    assert _github_slug("The `repro lint` CLI", seen) == "the-repro-lint-cli"
    assert _github_slug("Quick Start", seen) == "quick-start-1"  # duplicate
    text = "# Top\n\n## A & B (c)\n"
    assert _anchors_of(text) == ["top", "a--b-c"]


def test_main_exit_codes(tmp_path, capsys):
    root = _fixture(tmp_path, "# Repo\n", {"LOST.md": "# Lost\n"})
    assert main([str(root)]) == 1
    _write(root, "README.md", "# Repo\n\n[found](docs/LOST.md)\n")
    assert main([str(root)]) == 0


def test_live_repo_docs_are_current():
    """The gate CI applies: this repository's own docs must be clean."""
    findings = check_docs(REPO_ROOT)
    assert findings == [], "\n".join(f.format() for f in findings)
