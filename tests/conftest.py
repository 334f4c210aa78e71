"""Settings shared by every test under tests/."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run (derandomize) and keep
# no example database, so the suite stays deterministic. The example budget
# bounds their share of the suite's time; deadline=None keeps a slow first
# call from failing a test.
settings.register_profile(
    "warpcg", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.load_profile("warpcg")


def pytest_configure(config):
    # Hypothesis also caches the constants it reads from local source files
    # under its home directory, .hypothesis/ in the working directory unless
    # set. A temporary home, removed when pytest exits, keeps it out of the
    # checkout.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
