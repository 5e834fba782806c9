"""One hypothesis profile for every property test.

Examples are derived from each test's own definition (``derandomize``) and
no example database is read or written, so every run, local or CI, replays
the same examples and leaves no ``.hypothesis/`` directory behind. No
deadline applies: a slow machine must not turn a correct run into a failure.
"""
from hypothesis import settings

settings.register_profile("replay", derandomize=True, database=None, deadline=None)
settings.load_profile("replay")
