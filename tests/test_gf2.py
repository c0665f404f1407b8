import pytest

from divprotect.gf2 import Gf2Matrix


def test_from_rows_reduces_mod_2():
    m = Gf2Matrix.from_rows([[2, 3], [4, 5]])
    assert m.rows == ((0, 1), (0, 1))
    assert m.shape == (2, 2)
    assert m.rank() == 1
    assert not m.full_column_rank()


def test_identity_and_parity_rows():
    # the decode shape: unit rows plus the all-ones parity row
    m = Gf2Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert m.rank() == 3
    assert m.full_column_rank()
    # drop one unit row: parity restores full rank
    m = Gf2Matrix.from_rows([[1, 0, 0], [0, 0, 1], [1, 1, 1]])
    assert m.full_column_rank()
    # drop a unit row and the parity: rank collapses
    m = Gf2Matrix.from_rows([[1, 0, 0], [0, 0, 1]])
    assert m.rank() == 2
    assert not m.full_column_rank()


def test_empty_matrix():
    m = Gf2Matrix.from_rows([])
    assert m.shape == (0, 0)
    assert m.rank() == 0


def test_frozen():
    m = Gf2Matrix.from_rows([[1]])
    with pytest.raises(AttributeError):
        m.rows = ((0,),)
