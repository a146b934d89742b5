"""Parsing mechanics: module inference and unparseable files."""

from pathlib import Path

import pytest

from tests.lint.core import module_name_for


# --- module inference -------------------------------------------------


@pytest.mark.parametrize("path,expected", [
    ("src/repro/core/state.py", "repro.core.state"),
    ("src/repro/net/__init__.py", "repro.net"),
    ("src/repro/__init__.py", "repro"),
    ("/tmp/x/src/repro/sim/rng.py", "repro.sim.rng"),
    ("examples/demo.py", None),
    ("benchmarks/bench_topology.py", None),
])
def test_module_name_for(path, expected):
    assert module_name_for(Path(path)) == expected


# --- parse errors -----------------------------------------------------


def test_parse_error_names_file_and_line(tree):
    tree.write("src/repro/core/good.py", "x = 1\n")
    tree.write("src/repro/core/broken.py", "x = 1\ndef broken(:\n")
    with pytest.raises(SyntaxError) as raised:
        tree.graph()
    assert raised.value.filename == "src/repro/core/broken.py"
    assert raised.value.lineno == 2
