"""Protocol timers and quorum halving each live in one place.

``T_e``/``T_d``/``T_r`` are :class:`~repro.core.config.ProtocolConfig`
fields and ``w > v/2`` is :mod:`repro.quorum.voting`'s; a number
assigned to a timer name, or an inline ``// 2`` in ``repro.quorum`` /
``repro.cluster``, forks that one definition.  Comments and strings
are not code (``tr = 150 m`` in a docstring is the transmission range).
"""

import io
import re
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
TIMER = re.compile(r"(?i)\bt_?[edr]\s*(?::[^=\n]*)?[-+*/]?=\s*[-+]?\s*\d")
HALVING = re.compile(r"//\s*2\b")
# Python 3.12 splits f-strings into tokens; their literal text is prose.
PROSE = {tokenize.COMMENT, tokenize.STRING,
         getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def violations(relpath, source):
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    code = " ".join(tok.string for tok in tokens if tok.type not in PROSE)
    found = [] if relpath == "core/config.py" else TIMER.findall(code)
    if relpath.startswith(("quorum/", "cluster/")) and \
            relpath != "quorum/voting.py":
        found += HALVING.findall(code)
    return found


def test_tree_has_no_timer_or_halving_literals():
    for path in sorted(SRC.rglob("*.py")):
        relpath = path.relative_to(SRC).as_posix()
        assert violations(relpath, path.read_text(encoding="utf-8")) == [], \
            relpath


@pytest.mark.parametrize("source", [
    "td = 4.0", "T_d: float = 2", "tr += 1", "cfg.te = 1.5",
    "def start(node, tr=3.0):\n    pass", "half = n // 2",
], ids=["plain", "annotated", "augmented", "attribute", "default",
        "halving"])
def test_each_pattern_is_caught(source):
    assert len(violations("quorum/bad.py", source + "\n")) == 1


@pytest.mark.parametrize("relpath, caught", [
    ("cluster/bad.py", 1), ("quorum/voting.py", 0), ("core/ok.py", 0),
], ids=["cluster", "voting", "other-package"])
def test_halving_is_scoped(relpath, caught):
    assert len(violations(relpath, "half = n // 2\n")) == caught


@pytest.mark.parametrize("source", [
    "ok = td == 4", "trace = 1", "self.td = cfg.td", "x = 1  # tr = 150 m",
    '"""tr = 150 m"""', "third = n // 3",
], ids=["comparison", "other-name", "non-literal", "comment", "string",
        "thirds"])
def test_lookalikes_are_not(source):
    assert violations("quorum/ok.py", source + "\n") == []
    assert violations("core/config.py", "td = 4.0\n") == []
