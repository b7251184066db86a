import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdstab as r
from rdstab.errors import DimensionError, InvalidParameterError


def test_grid_basic_geometry():
    g = r.make_grid(2.0, 5)
    assert g.dx == pytest.approx(0.5)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 2.0
    assert np.allclose(np.diff(g.nodes), g.dx)


def test_grid_nodes_read_only():
    g = r.make_grid(1.0, 10)
    with pytest.raises(ValueError):
        g.nodes[0] = 3.0


def test_grids_compare_and_hash_by_their_fields():
    a, b = r.make_grid(1.0, 10), r.make_grid(1.0, 10)
    assert a == b and hash(a) == hash(b)
    assert a != r.make_grid(1.0, 11) and a != r.make_grid(2.0, 10)
    # handles built on equal grids are equal too
    ka, kb = r.kernel_table(a, 6.0, 1.0), r.kernel_table(b, 6.0, 1.0)
    assert ka == kb and hash(ka) == hash(kb)
    assert len({ka, kb, r.kernel_table(a, 7.0, 1.0)}) == 2


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        r.make_grid(0.0, 10)
    with pytest.raises(InvalidParameterError):
        r.make_grid(-1.0, 10)
    with pytest.raises(InvalidParameterError):
        r.make_grid(1.0, 1)


def test_check_vector_shape():
    g = r.make_grid(1.0, 10)
    with pytest.raises(DimensionError):
        g.check_vector(np.zeros(9))
    with pytest.raises(DimensionError):
        g.check_vector(np.zeros((10, 1)))


def test_trapezoid_weights_sum_to_length():
    g = r.make_grid(3.0, 17)
    assert r.trapezoid_weights(g).sum() == pytest.approx(3.0)


def test_trapezoid_exact_for_linear():
    # the composite trapezoid rule integrates affine functions exactly
    g = r.make_grid(1.0, 13)
    vals = 2.0 * g.nodes + 1.0
    assert r.trapezoid(vals, g) == pytest.approx(2.0, abs=1e-14)


def test_inner_product_symmetric_bilinear():
    g = r.make_grid(1.0, 40)
    rng = np.random.default_rng(0)
    u, v, w = rng.standard_normal((3, g.nx))
    assert r.inner_product(u, v, g) == pytest.approx(r.inner_product(v, u, g))
    assert r.inner_product(u + 2.0 * w, v, g) == pytest.approx(
        r.inner_product(u, v, g) + 2.0 * r.inner_product(w, v, g)
    )


def test_l2_norm_of_sine_mode():
    g = r.make_grid(1.0, 400)
    e1 = np.sqrt(2.0) * np.sin(np.pi * g.nodes)
    assert r.l2_norm(e1, g) == pytest.approx(1.0, abs=1e-4)


def test_h1_norm_of_linear_ramp():
    # v = x: L2 part integrates x^2, derivative part is exactly L
    g = r.make_grid(1.0, 101)
    v = g.nodes.copy()
    l2sq = r.l2_norm(v, g) ** 2
    assert r.h1_norm(v, g) == pytest.approx(np.sqrt(l2sq + 1.0), rel=1e-12)


def test_tridiagonal_dense_matvec_banded_agree():
    rng = np.random.default_rng(1)
    n = 12
    tri = r.Tridiagonal(
        sub=rng.standard_normal(n - 1),
        diag=rng.standard_normal(n) + 5.0,
        sup=rng.standard_normal(n - 1),
    )
    v = rng.standard_normal(n)
    dense = tri.to_dense()
    assert np.allclose(tri.matvec(v), dense @ v, atol=1e-13)
    from scipy.linalg.lapack import dgtsv

    *_, x, info = dgtsv(tri.sub, tri.diag, tri.sup, v)
    assert info == 0
    assert np.allclose(dense @ x, v, atol=1e-10)


def test_laplacian_interior_and_boundary():
    g = r.make_grid(1.0, 200)
    lap = r.laplacian_matrix(g)
    v = np.sin(np.pi * g.nodes)
    out = lap.matvec(v)
    assert np.allclose(out[1:-1], -np.pi**2 * v[1:-1], atol=1e-3)
    # identity constraint rows
    assert out[0] == v[0]
    assert out[-1] == v[-1]


def test_laplacian_needs_three_nodes():
    with pytest.raises(InvalidParameterError):
        r.laplacian_matrix(r.make_grid(1.0, 2))


def test_norms_of_a_stack_are_row_norms():
    g = r.make_grid(1.0, 50)
    stack = np.random.default_rng(2).standard_normal((4, g.nx))
    wq = r.trapezoid_weights(g)

    def l2_ref(v):
        return np.sqrt(np.dot(wq, v * v))

    def h1_ref(v):
        d = np.diff(v) / g.dx
        return np.sqrt(l2_ref(v) ** 2 + g.dx * np.dot(d, d))

    for norm, ref in ((r.l2_norm, l2_ref), (r.h1_norm, h1_ref)):
        rows = norm(stack, g)
        assert rows.shape == (4,)
        for k in range(4):
            single = norm(stack[k], g)
            assert isinstance(single, float)
            assert single == rows[k]
            assert single == pytest.approx(ref(stack[k]), rel=1e-14)
        with pytest.raises(DimensionError):
            norm(stack[:, :-1], g)
        with pytest.raises(DimensionError):
            norm(stack[None], g)


def _plain_norms(stack, g):
    """The unscaled formulas of l2_norm and h1_norm, for rows that do not overflow."""
    l2 = np.sqrt(np.einsum("...i,...i,i->...", stack, stack, r.trapezoid_weights(g)))
    diff = np.diff(stack, axis=-1)
    return l2, np.sqrt(l2**2 + np.einsum("ij,ij->i", diff, diff) / g.dx)


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(3, 80),
    rows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-150, 150),
)
def test_ordinary_rows_keep_their_bits(nx, rows, seed, exponent):
    # rows whose squares neither overflow nor vanish take the plain formula, bit for bit
    g = r.make_grid(1.0, nx)
    stack = np.random.default_rng(seed).standard_normal((rows, nx)) * 10.0**exponent
    l2, h1 = _plain_norms(stack, g)
    assert np.array_equal(r.l2_norm(stack, g), l2)
    assert np.array_equal(r.h1_norm(stack, g), h1)


def test_overflowing_row_is_rescaled():
    g = r.make_grid(1.0, 200)
    sine = np.sin(np.pi * g.nodes)
    stack = np.stack([sine, 1e300 * sine, np.full(g.nx, np.inf)])
    for norm in (r.l2_norm, r.h1_norm):
        out = norm(stack, g)
        assert out[1] == pytest.approx(1e300 * norm(sine, g), rel=1e-14)
        assert norm(1e300 * sine, g) == out[1]
        assert out[0] == norm(sine, g)
        assert not np.isfinite(out[2])  # a non-finite row is left as it is


def test_underflowing_row_is_rescaled():
    # squares of 1e-160 underflow to subnormals and those of 1e-170 to zero
    g = r.make_grid(1.0, 200)
    sine = np.sin(np.pi * g.nodes)
    for scale in (1e-160, 1e-170, 1e-300):
        stack = np.stack([sine, scale * sine, np.zeros(g.nx), np.full(g.nx, np.nan)])
        for norm in (r.l2_norm, r.h1_norm):
            out = norm(stack, g)
            assert out[1] == pytest.approx(scale * norm(sine, g), rel=1e-14, abs=0.0)
            assert norm(scale * sine, g) == out[1]
            assert out[0] == norm(sine, g)
            assert out[2] == 0.0  # a zero row stays zero
            assert np.isnan(out[3])  # a non-finite row is left as it is
