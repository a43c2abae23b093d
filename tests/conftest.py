"""Shared test settings: one hypothesis profile keeps every property test deterministic.

Examples come from a fixed derivation rather than a random seed, nothing is
stored between runs, and there is no per-example deadline (exact linear
algebra on a loaded machine can be slow).  Property tests set only what
differs, such as `max_examples`.
"""

from hypothesis import settings

settings.register_profile("nlgotz", derandomize=True, database=None, deadline=None)
settings.load_profile("nlgotz")
