import pytest

from heckemod2.mbasis import MBasis


@pytest.fixture(scope="session")
def mtable():
    """One shared m(a,b) table, grown to the deepest level a test asks for."""
    return MBasis()
