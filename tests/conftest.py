import pytest

from heckemod2.mbasis import MBasis


@pytest.fixture(scope="session")
def mtable():
    """One shared m(a,b) table; entries stay valid as the level grows."""
    return MBasis()
