"""Unit tests for the clustering role decision."""

from repro.cluster import Role, decide_role
from repro.cluster.roles import ADJACENT_HEAD_HOPS, HEAD_SCOPE_HOPS


def test_paper_constants():
    assert HEAD_SCOPE_HOPS == 2
    assert ADJACENT_HEAD_HOPS == 3


def test_head_in_scope_means_common():
    role, allocator = decide_role([(7, 2)])
    assert role is Role.COMMON
    assert allocator == 7


def test_nearest_head_chosen():
    role, allocator = decide_role([(3, 1), (9, 2)])
    assert role is Role.COMMON
    assert allocator == 3


def test_no_heads_means_new_head():
    role, allocator = decide_role([])
    assert role is Role.HEAD
    assert allocator is None

