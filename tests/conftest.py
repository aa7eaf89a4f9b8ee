"""One hypothesis profile for every property test: derandomized, so a run
draws the same examples each time, and without a per-example deadline, so a
slow machine cannot fail a test on timing."""

from hypothesis import settings

settings.register_profile("mrw", derandomize=True, deadline=None)
settings.load_profile("mrw")
