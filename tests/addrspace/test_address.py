"""Unit tests for address formatting."""

import pytest

from repro.addrspace import format_ip


def test_known_formats():
    assert format_ip(0) == "10.0.0.0"
    assert format_ip(1) == "10.0.0.1"
    assert format_ip(255) == "10.0.0.255"
    assert format_ip(256) == "10.0.1.0"
    assert format_ip(65536) == "10.1.0.0"


def test_negative_address_rejected():
    with pytest.raises(ValueError):
        format_ip(-1)


def test_custom_base():
    base = (192 << 24) | (168 << 16)
    assert format_ip(1, base=base) == "192.168.0.1"
