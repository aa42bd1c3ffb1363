"""Differential oracles: slow reference implementations the fast paths
in :mod:`repro` are checked against. Not shipped in the package."""
