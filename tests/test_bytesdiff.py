"""The large-document equality helper: as strict as ``==``, short on failure."""

import hashlib

import pytest

from .bytesdiff import assert_same_document, first_difference


def test_identical_documents_pass():
    assert_same_document("{}", "{}")
    assert_same_document(b"\x00\xff", b"\x00\xff")


@pytest.mark.parametrize(
    "a, b, offset",
    [("abcX", "abcY", 3), ("abc", "abcd", 3), ("", "a", 0), ("é", "e", 0)],
)
def test_first_difference(a, b, offset):
    assert first_difference(a.encode(), b.encode()) == offset


def test_failure_names_digests_lengths_offset_and_context():
    a = '{"k": "' + "x" * 4_000_000 + "A" + "y" * 100 + '"}'
    b = a.replace("A", "B")
    with pytest.raises(AssertionError) as info:
        assert_same_document(a, b, 17)
    msg = str(info.value)
    assert msg.startswith("17: documents differ")
    assert hashlib.sha256(a.encode()).hexdigest() in msg
    assert hashlib.sha256(b.encode()).hexdigest() in msg
    assert f"{len(a)} bytes" in msg
    assert f"first difference at byte {a.index('A')}" in msg
    assert "'" + "x" * 40 + "A" + "y" * 39 + "'" in msg
    assert len(msg) < 1000
