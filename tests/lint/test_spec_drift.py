"""The committed docs and spec must match what they are derived from.

The protocol's input table lives once, as ``TABLE`` in
:mod:`repro.core.messages`; the block docs/PROTOCOL.md carries between
its ``state-machine-table`` markers is that table rendered by
``render_table()``, one line per row.  Editing a row without
regenerating the block, or hand-editing the block, is drift, and this
test fails on it.
"""

from pathlib import Path

from repro.core.messages import TABLE, render_table
from tests.lint import protocol_spec as spec

REPO_ROOT = Path(__file__).resolve().parents[2]
PROTOCOL_MD = REPO_ROOT / "docs" / "PROTOCOL.md"

BEGIN = "<!-- state-machine-table:begin"
END = "<!-- state-machine-table:end -->"


def test_docs_table_matches_spec():
    text = PROTOCOL_MD.read_text(encoding="utf-8")
    assert BEGIN in text and END in text, (
        "docs/PROTOCOL.md lost its state-machine table markers")
    block = text[text.index(BEGIN):text.index(END)]
    committed = block.split("\n", 1)[1].rstrip("\n")   # drop the marker line
    assert committed == render_table(), (
        "docs/PROTOCOL.md is stale: regenerate the block with "
        "repro.core.messages.render_table() (see that module's docstring)")


def test_docs_table_names_every_awaited_reply():
    """The table's third column is each row's ``awaited``: every request
    shows the kind of the awaited reply that closes it, and nothing
    else does."""
    rows = render_table().splitlines()[2:]
    shown = {row.split("|")[1].strip(" `"): row.split("|")[3].strip(" `")
             for row in rows}
    assert {key: kind for key, kind in shown.items() if kind != "—"} == {
        key: row.awaited for key, row in TABLE.items() if row.awaited}


def test_terminal_events_are_a_subset_of_emitters():
    from repro.obs import events as ev
    terminal = {cls.__name__ for cls in ev.EVENT_TYPES.values()
                if cls.etype in ev.TERMINAL_ETYPES}
    assert len(terminal) == len(ev.TERMINAL_ETYPES)
    assert terminal <= set(spec.EVENT_EMITTERS)
    for key, row in TABLE.items():
        ends = {event.__name__ for event in row.ends}
        assert ends <= terminal, (
            f"row {key} ends non-terminal events {sorted(ends - terminal)}")


def test_spec_events_match_obs_module():
    from repro.obs import events as ev
    declared = {cls.__name__ for cls in ev.EVENT_TYPES.values()}
    assert set(spec.EVENT_EMITTERS) == declared, (
        "EVENT_EMITTERS out of sync with repro.obs.events: "
        f"spec-only={sorted(set(spec.EVENT_EMITTERS) - declared)}, "
        f"obs-only={sorted(declared - set(spec.EVENT_EMITTERS))}")
