"""What deriving everything from ``messages.TABLE`` does not already
guarantee: the constants themselves, and the paper's vocabulary."""

from repro.core import messages as m

CONSTANTS = {name: value for name, value in vars(m).items()
             if name.isupper() and isinstance(value, str)}


def test_all_types_unique():
    assert len(set(CONSTANTS.values())) == len(CONSTANTS)


def test_all_types_match_their_constants():
    for name, value in CONSTANTS.items():
        assert value == name


def test_every_module_constant_is_registered():
    # A constant without a table row has no handler and no legal sender.
    assert set(CONSTANTS.values()) == set(m.ALL_TYPES)


def test_table1_vocabulary_present():
    for name in ("CH_REQ", "CH_PRP", "CH_CNF", "QUORUM_CLT",
                 "QUORUM_CFM", "CH_CFG", "CH_ACK"):
        assert name in m.ALL_TYPES


def test_paper_named_messages_present():
    # The messages the paper names explicitly in Sections IV-V.
    for name in ("COM_REQ", "UPDATE_LOC", "RETURN_ADDR", "ADDR_REC",
                 "REC_REP", "REP_REQ"):
        assert name in m.ALL_TYPES
