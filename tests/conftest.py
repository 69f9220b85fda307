import pytest
from hypothesis import settings

from xling.lexicon import Lexicon

# Property tests run FFTs on whole signals; a per-example deadline would
# turn a slow moment of a shared host into a failure.  Tests that pass their
# own ``settings`` keep them.
settings.register_profile("xling", deadline=None)
settings.load_profile("xling")


@pytest.fixture(scope="session")
def lexicon():
    return Lexicon.load_default()


@pytest.fixture(scope="session")
def minicorpus(tmp_path_factory):
    """Synthetic mini-corpus mirroring the d1/d2/d3 layout, built once."""
    from xling.minicorpus import generate

    root = tmp_path_factory.mktemp("minicorpus")
    generate(root)
    return root
