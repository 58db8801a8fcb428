"""Tier-1 draws the same Hypothesis examples on every run and keeps no database."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
