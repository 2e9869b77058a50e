import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Fixed example sequences, no example database, and no per-example
# deadline, whose timing depends on the host's load.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")

# Hypothesis also caches constants read from the source under its home
# directory; keep that in a directory removed when the run ends, not in
# .hypothesis/ of the working tree.
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)
