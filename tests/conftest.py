"""Test-suite configuration: Hypothesis draws the same examples on every
run (each test keeps its own max_examples), so a Tier-1 verdict does not
depend on which examples a run happened to draw."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
