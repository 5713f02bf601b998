"""Verdict benchmark for ``repro``: see ``perfbench/README.md``."""
