"""Tier-1 runs every Hypothesis test derandomized: a red run is the same
red run everywhere, and draws no seed from a local example database.

Random exploration stays available through Hypothesis's own pytest flag —
``--hypothesis-profile=default`` (what the CI ``chaos-sweep`` job passes)
loads after this file and wins.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
