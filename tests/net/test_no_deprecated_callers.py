"""The pre-``send()`` transport surface is gone, not merely unused.

``Transport.unicast`` / ``broadcast_1hop`` / ``flood`` were deprecated
in PR 2 and deleted once the window closed; a caller is an
``AttributeError`` in whatever test reaches it.
"""

from repro.net.transport import Transport


def test_no_deprecated_transport_callers():
    for name in ("unicast", "broadcast_1hop", "flood"):
        assert not hasattr(Transport, name)
