"""Shared fixtures: the built-in code and three searched codes with frozen
seeds.

The searched fixtures pin (n, k, m_even, budget, seed) tuples whose hits
were recorded once; test_codes re-runs the search to confirm the rows still
come out identical, so every other test can build from the frozen strings
without paying for the search.
"""

import pytest

from triortho.codes import (
    TriorthogonalMatrix,
    build_code,
    builtin_15_1_3,
)
from triortho.gf2 import BitMatrix

# search_triorthogonal(n=14, k=1, m_even=3, budget=50000, seed=3)
D2_SEARCH = dict(n=14, k=1, m_even=3, budget=50000, seed=3)
D2_ROWS = (
    "10111001111000",
    "11011110100010",
    "10110100001111",
    "00010110111001",
)

# search_triorthogonal(n=10, k=1, m_even=3, budget=50000, seed=0)
SMALL10_SEARCH = dict(n=10, k=1, m_even=3, budget=50000, seed=0)
SMALL10_ROWS = (
    "0000110110",
    "0100011010",
    "0001110111",
    "1001100101",
)

# search_triorthogonal(n=8, k=1, m_even=3, budget=50000, seed=0)
SMALL8_SEARCH = dict(n=8, k=1, m_even=3, budget=50000, seed=0)
SMALL8_ROWS = (
    "00110110",
    "00011011",
    "00111111",
    "01110110",
)


def matrix_from_rows(rows) -> TriorthogonalMatrix:
    return TriorthogonalMatrix.from_matrix(BitMatrix.from_strings(rows))


def direct_sum(rows, copies) -> TriorthogonalMatrix:
    """Block-diagonal copies of a matrix, verified at level 3."""
    width = len(rows[0])
    strings = [
        "0" * width * c + row + "0" * width * (copies - 1 - c)
        for c in range(copies)
        for row in rows
    ]
    return TriorthogonalMatrix.from_matrix(BitMatrix.from_strings(strings), level=3)


@pytest.fixture(scope="session")
def builtin_matrix():
    return builtin_15_1_3()


@pytest.fixture(scope="session")
def builtin_code(builtin_matrix):
    return build_code(builtin_matrix)


@pytest.fixture(scope="session")
def d2_matrix():
    return matrix_from_rows(D2_ROWS)


@pytest.fixture(scope="session")
def d2_code(d2_matrix):
    return build_code(d2_matrix)


@pytest.fixture(scope="session")
def small10_matrix():
    return matrix_from_rows(SMALL10_ROWS)


@pytest.fixture(scope="session")
def small10_code(small10_matrix):
    return build_code(small10_matrix)


@pytest.fixture(scope="session")
def small8_matrix():
    return matrix_from_rows(SMALL8_ROWS)


@pytest.fixture(scope="session")
def small8_code(small8_matrix):
    return build_code(small8_matrix)
