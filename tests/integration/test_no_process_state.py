"""The program keeps no process state a caller configures it through.

Whether a run exports its trace or metrics, whether a sweep runs in
parallel and whether it reads a cache are arguments of the call that
asks for them (``ScenarioRunner``, ``execute_spec``, ``SweepExecutor``),
never a module global a setter installs or an environment variable read
from a distance.  So ``src/repro`` holds no ``global`` statement and
reads no environment variable.
"""

import ast

import pytest

ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def process_state(tree):
    """``(line, what)`` for every ``global`` statement and every read of
    the environment through ``os``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append((node.lineno, "global " + ", ".join(node.names)))
        elif (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, "os." + node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, "os." + alias.name)
                      for alias in node.names if alias.name in ENVIRONMENT]
    return sorted(found)


def test_src_holds_no_process_state(program_files):
    found = {}
    for relpath, ctx in program_files.items():
        hits = process_state(ctx.tree)
        if hits:
            found[relpath] = [what for _, what in hits]
    assert found == {}


@pytest.mark.parametrize("source", [
    "SINK = None\ndef install(path):\n    global SINK\n    SINK = path\n",
    "import os\nWORKERS = os.environ.get('WORKERS')\n",
    "import os\nWORKERS = os.getenv('WORKERS')\n",
    "from os import environ\n",
], ids=["global", "os.environ", "os.getenv", "from-os-import"])
def test_each_kind_of_process_state_is_caught(source):
    assert len(process_state(ast.parse(source))) == 1


@pytest.mark.parametrize("source", [
    "def run(path=None):\n    return path\n",
    "import os\nCORES = os.cpu_count()\n",
], ids=["argument", "os.cpu_count"])
def test_arguments_and_other_os_calls_pass(source):
    assert process_state(ast.parse(source)) == []
