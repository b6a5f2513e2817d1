"""Benchmark of the isozonoid verification suites (see README.md)."""
