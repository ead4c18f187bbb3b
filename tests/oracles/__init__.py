"""Test-only reference implementations (oracles).

Each module here holds the straightforward form of an algorithm the
product implements in a faster shape. Parity tests compare the two
bit for bit; nothing under ``src/`` imports from this package.
"""
