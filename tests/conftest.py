import shutil
import tempfile

from hypothesis import configuration, settings

# Fixed example sequence and no example database: every run of the suite
# draws the same inputs.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    # Hypothesis still caches source constants on disk; keep that cache out
    # of the working tree and delete it when the session ends.
    config.hypothesis_home = tempfile.mkdtemp(prefix="qball-hypothesis-")
    configuration.set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)
