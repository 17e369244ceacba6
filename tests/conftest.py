"""Hypothesis profiles for the test suite.

- `tier1`, the default: every property test draws the same examples on
  every run (`derandomize=True`) and no example database is read or written,
  so a run's outcome depends on the checkout alone.
- `explore`: fresh random draws on every run and the local example
  database, for a deliberate search for new failures:

      pytest --hypothesis-profile=explore

Each property test's own `@settings` keep its `max_examples` under either
profile and take the rest from it; the few that set `derandomize=True`
themselves stay derandomized under `explore` too.  A failure found under
`explore` is pinned on its test with `@example`.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")
