"""Protocol timers and the quorum rule each live in one place.

``T_e``/``T_d``/``T_r`` are :class:`~repro.core.config.ProtocolConfig`
fields and ``w > v/2`` is :func:`repro.quorum.voting.is_quorum`'s; a
number assigned to a timer name, an inline ``// 2`` in
``repro.quorum`` / ``repro.cluster``, or an inline majority
(``2 * w > v``, ``w * 2 > v``, ``v // 2 + 1``) in ``repro.core`` /
``repro.quorum`` / ``repro.cluster`` forks that one definition.
Comments and strings are not code (``tr = 150 m`` in a docstring is
the transmission range).
"""

import io
import re
import tokenize

import pytest

TIMER = re.compile(r"(?i)\bt_?[edr]\s*(?::[^=\n]*)?[-+*/]?=\s*[-+]?\s*\d")
HALVING = re.compile(r"//\s*2\b")
# Code tokens are joined by single spaces, so ``2*w>v`` reads "2 * w > v".
MAJORITY = re.compile(r"(?<![\w.])2 \* [^\n,;:<>=]+ >|\* 2 >|// 2 \+ 1\b")
# Python 3.12 splits f-strings into tokens; their literal text is prose.
PROSE = {tokenize.COMMENT, tokenize.STRING,
         getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def violations(relpath, source):
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    code = " ".join(tok.string for tok in tokens if tok.type not in PROSE)
    found = [] if relpath == "core/config.py" else TIMER.findall(code)
    if relpath == "quorum/voting.py":
        return found
    if relpath.startswith(("quorum/", "cluster/")):
        found += HALVING.findall(code)
    if relpath.startswith(("core/", "quorum/", "cluster/")):
        found += MAJORITY.findall(code)
    return found


def test_tree_has_no_timer_or_halving_literals(program_files):
    for relpath, ctx in program_files.items():
        source = "".join(line + "\n" for line in ctx.lines)
        assert violations(relpath, source) == [], relpath


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
    "ok = 2 * votes > size", "ok = 2*len(votes)>=size",
    "ok = votes * 2 > size", "need = size // 2 + 1",
    "        return 2 * reachable > universe_size",
], ids=["twice-left", "twice-left-call", "twice-right", "floor-plus-one",
        "indented-return"])
def test_each_majority_is_caught(source):
    assert len(violations("core/bad.py", source + "\n")) == 1


@pytest.mark.parametrize("relpath, caught", [
    ("core/bad.py", 1), ("quorum/bad.py", 1), ("cluster/bad.py", 1),
    ("quorum/voting.py", 0), ("experiments/ok.py", 0),
], ids=["core", "quorum", "cluster", "voting", "other-package"])
def test_majority_is_scoped(relpath, caught):
    assert len(violations(relpath, "ok = 2 * votes > size\n")) == caught


@pytest.mark.parametrize("source", [
    "ok = 2 * votes == size", "ok = 12 * votes > size",
    "wait = now + 2 * timeout", "hops = 2 * max(d) if d else 0",
    "k = k * 2", "ok = 1.2 * votes > size", "ok = votes > 2",
], ids=["equality", "twelve", "sum", "conditional", "doubling", "float",
        "literal-bound"])
def test_majority_lookalikes_are_not(source):
    assert violations("core/ok.py", source + "\n") == []


@pytest.mark.parametrize("source", [
    "ok = td == 4", "trace = 1", "self.td = cfg.td", "x = 1  # tr = 150 m",
    '"""tr = 150 m"""', "third = n // 3",
], ids=["comparison", "other-name", "non-literal", "comment", "string",
        "thirds"])
def test_lookalikes_are_not(source):
    assert violations("quorum/ok.py", source + "\n") == []
    assert violations("core/config.py", "td = 4.0\n") == []
