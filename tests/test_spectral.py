import math

import numpy as np
import pytest

import rdstab as r
from rdstab.errors import InvalidParameterError, ResolutionError


def test_eigenvalue_formula():
    assert r.eigenvalue(1, 1.0) == pytest.approx(np.pi**2)
    assert r.eigenvalue(3, 2.0) == pytest.approx((3.0 * np.pi / 2.0) ** 2)
    with pytest.raises(InvalidParameterError):
        r.eigenvalue(0, 1.0)
    with pytest.raises(InvalidParameterError):
        r.eigenvalue(1, 0.0)


@pytest.mark.parametrize("length", [math.inf, -math.inf, math.nan])
def test_eigenvalue_refuses_non_finite_length(length):
    # inf gave 0.0 and nan gave nan
    with pytest.raises(InvalidParameterError, match="finite and positive"):
        r.eigenvalue(1, length)


def test_modes_discretely_orthonormal(grid200):
    basis = r.modal_basis(grid200, 6)
    G = grid200.dx * basis.W.T @ basis.W
    assert np.max(np.abs(G - np.eye(6))) < 1e-12


def test_mode_accessor(grid200):
    basis = r.modal_basis(grid200, 3)
    e2 = basis.mode(2)
    expect = np.sqrt(2.0) * np.sin(2.0 * np.pi * grid200.nodes)
    assert np.allclose(e2, expect)
    with pytest.raises(InvalidParameterError):
        basis.mode(0)
    with pytest.raises(InvalidParameterError):
        basis.mode(4)


def test_mode_count_cap(grid200):
    # more modes than the grid resolves is rejected
    with pytest.raises(ResolutionError):
        r.modal_basis(grid200, 51)
    r.modal_basis(grid200, 50)


def test_mode_count_must_be_integer(grid200):
    # 1.5 modes is refused, not truncated to one
    for n_modes in (1.5, 2.0, True):
        with pytest.raises(InvalidParameterError, match="n_modes must be an integer"):
            r.modal_basis(grid200, n_modes)
    assert r.modal_basis(grid200, np.int32(2)).n_modes == 2


def test_projection_idempotent_symmetric(grid200):
    P = r.projection_matrix(r.modal_basis(grid200, 4)).matrix
    assert np.max(np.abs(P - P.T)) == 0.0
    assert np.max(np.abs(P @ P - P)) < 1e-12


def test_projection_reproduces_low_modes(grid200):
    basis = r.modal_basis(grid200, 3)
    P = r.projection_matrix(basis)
    for n in (1, 2, 3):
        en = basis.mode(n)
        assert np.max(np.abs(P.apply(en) - en)) < 1e-12


def test_projection_annihilates_higher_modes(grid200):
    basis = r.modal_basis(grid200, 2)
    P = r.projection_matrix(basis)
    e3 = np.sqrt(2.0) * np.sin(3.0 * np.pi * grid200.nodes)
    assert np.max(np.abs(P.apply(e3))) < 1e-12


def test_projection_eigenvalues_zero_or_one(grid200):
    P = r.projection_matrix(r.modal_basis(grid200, 3)).matrix
    vals = np.sort(np.linalg.eigvalsh(P))
    assert np.allclose(vals[-3:], 1.0, atol=1e-10)
    assert np.allclose(vals[:-3], 0.0, atol=1e-10)
