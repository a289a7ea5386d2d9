from pathlib import Path

import pytest

from dblnerve.dblcat import equivalence_embed, horizontal_embed
from dblnerve.io import load_path
from dblnerve.standard import chain_category, locally_discrete

CORPUS = Path(__file__).parent.parent / "corpus"


@pytest.fixture(scope="session")
def iso2():
    return load_path(CORPUS / "iso.json")


@pytest.fixture(scope="session")
def arrow2():
    return load_path(CORPUS / "arrow.json")


@pytest.fixture(scope="session")
def point2():
    return locally_discrete(chain_category(0))


@pytest.fixture(scope="session")
def h_iso(iso2):
    return horizontal_embed(iso2)


@pytest.fixture(scope="session")
def hsim_iso(iso2):
    return equivalence_embed(iso2)


@pytest.fixture(scope="session")
def hsim_arrow(arrow2):
    return equivalence_embed(arrow2)


@pytest.fixture(scope="session")
def square_dbl():
    return load_path(CORPUS / "free-square.json")


@pytest.fixture(scope="session")
def point_dbl(point2):
    return horizontal_embed(point2)


@pytest.fixture(scope="session")
def tri2():
    return load_path(CORPUS / "tri-invertible.json")


@pytest.fixture(scope="session")
def corpus_dbl(point_dbl, square_dbl, h_iso, hsim_iso, hsim_arrow):
    """The standing double-category corpus used by the acceptance criteria."""
    return {
        "point": point_dbl,
        "square": square_dbl,
        "h-iso": h_iso,
        "hsim-iso": hsim_iso,
        "hsim-arrow": hsim_arrow,
    }
