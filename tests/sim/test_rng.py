"""Unit tests for named random streams."""

from repro.sim.rng import RandomStreams, derive_seed, spawn_key


def test_same_name_returns_same_stream():
    streams = RandomStreams(1)
    assert streams.get("a") is streams.get("a")


def test_different_names_are_independent():
    streams = RandomStreams(1)
    a_first = streams.get("a").random()
    # Drawing from b must not perturb a's sequence.
    streams2 = RandomStreams(1)
    streams2.get("b").random()
    assert streams2.get("a").random() == a_first


def test_deterministic_across_instances():
    seq1 = [RandomStreams(9).get("x").random() for _ in range(1)]
    seq2 = [RandomStreams(9).get("x").random() for _ in range(1)]
    assert seq1 == seq2


def test_master_seed_changes_streams():
    assert (
        RandomStreams(1).get("x").random()
        != RandomStreams(2).get("x").random()
    )


def test_derive_seed_stable_and_distinct():
    assert derive_seed(5, "a") == derive_seed(5, "a")
    assert derive_seed(5, "a") != derive_seed(5, "b")
    assert derive_seed(5, "a") != derive_seed(6, "a")


def test_spawn_key_depends_only_on_master_and_path():
    assert spawn_key(0, "fig05", "quorum", 3) == spawn_key(
        0, "fig05", "quorum", 3)
    assert spawn_key(0, "fig05", "quorum", 3) != spawn_key(
        1, "fig05", "quorum", 3)
    assert spawn_key(0, "fig05", "quorum", 3) != spawn_key(
        0, "fig05", "quorum", 4)


def test_spawn_key_distinguishes_part_types_and_boundaries():
    assert spawn_key(0, 1) != spawn_key(0, "1")
    assert spawn_key(0, "ab", "c") != spawn_key(0, "a", "bc")
