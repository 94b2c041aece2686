"""Pytest configuration: make tests/helpers.py importable from any test,
and register the hypothesis profiles.

* ``default`` (tier-1): every ``@given`` test draws the same examples on
  every run (``derandomize``), and no example database replays earlier
  failures, so a tier-1 verdict is a function of the commit.  No
  wall-clock deadline either, for the same reason.
* ``explore``: fresh random examples, ten times as many.  Run it with
  ``pytest --hypothesis-profile=explore tests/property tests/test_pay_once.py``;
  pin anything it finds as an ``@example`` on the test.
"""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from helpers import TIER1_EXAMPLES  # noqa: E402

settings.register_profile(
    "default", derandomize=True, database=None, deadline=None,
    max_examples=TIER1_EXAMPLES,
)
settings.register_profile(
    "explore", derandomize=False, max_examples=10 * TIER1_EXAMPLES,
)
settings.load_profile("default")
