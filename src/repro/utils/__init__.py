"""Shared utilities: deterministic RNG handling, timing, text tables, serialization.

These helpers are intentionally dependency-free (NumPy only) and are used across
every subpackage of :mod:`repro`.
"""
