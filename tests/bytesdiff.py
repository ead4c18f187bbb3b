"""Equality checks for large serialized documents.

A plain ``assert a == b`` on two multi-megabyte strings makes pytest
compute a full text diff when they differ, which can run for many
minutes without output. :func:`assert_same_document` is exactly as
strict as ``==``, but its failure message is a fixed-size summary:
both sha256 digests, both lengths, the first differing byte offset and
the text around it.
"""

import hashlib

import numpy as np

#: Bytes of context shown on each side of the first difference.
CONTEXT = 40


def first_difference(a: bytes, b: bytes) -> int:
    """Offset of the first differing byte (the shorter length on a prefix)."""
    n = min(len(a), len(b))
    differ = np.flatnonzero(
        np.frombuffer(a, np.uint8, n) != np.frombuffer(b, np.uint8, n)
    )
    return int(differ[0]) if differ.size else n


def assert_same_document(actual, expected, note: object = "") -> None:
    """Fail unless the two documents (``str`` or ``bytes``) are identical.

    ``note`` heads the failure message, like the message of an assert.
    """
    a = actual.encode("utf-8") if isinstance(actual, str) else bytes(actual)
    b = expected.encode("utf-8") if isinstance(expected, str) else bytes(expected)
    if a == b:
        return
    offset = first_difference(a, b)
    lo, hi = max(0, offset - CONTEXT), offset + CONTEXT
    head = "documents differ" if note == "" else f"{note}: documents differ"

    def around(doc: bytes) -> str:
        return repr(doc[lo:hi].decode("utf-8", "replace"))

    raise AssertionError(
        f"{head}\n"
        f"  actual:   {len(a)} bytes, sha256 {hashlib.sha256(a).hexdigest()}\n"
        f"  expected: {len(b)} bytes, sha256 {hashlib.sha256(b).hexdigest()}\n"
        f"  first difference at byte {offset}; bytes {lo}..{hi}:\n"
        f"  actual:   {around(a)}\n"
        f"  expected: {around(b)}"
    )
