"""Coherent-state transport against the earlier, separately written formulas.

``bergman`` now evaluates every normalized coherent-state coefficient through
``scaled_basis_values``: column 0 of the transport is a phase times those
values, ``coherent_vector`` is the conjugate of one column, and the raise step
is one column-vectorized bidiagonal recursion.  ``husimi_grid`` hands the
transport coefficient arrays instead of one ``GroupElement`` per point.  The
references below are the previous implementations, kept verbatim: their own
gammaln/log/phase assembly with its zero special cases, the single-column
``solve_banded`` raise step, and the per-point ``GroupElement`` Husimi loop.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.special import gammaln

from diskchannels.bergman import (
    TruncatedOperator,
    coherent_vector,
    group_action_matrix,
    log_monomial_norm_sq,
    transported_basis_vectors,
)
from diskchannels.disk import (
    GroupElement,
    build_quadrature,
    transporter,
    transporter_coefficients,
)
from diskchannels.transforms import husimi_grid
from oracles import random_psd

TOL = 1e-13


def phase_tol(nu):
    # e^{i nu arg a} moves by nu * |d arg a| when a is rounded, so both
    # formulas carry a phase error of a few nu * eps at large weights
    return max(TOL, 4 * nu * np.finfo(float).eps)


def coherent_vector_reference(nu, w, degree):
    w = complex(w)
    t = abs(w) ** 2
    if t >= 1.0:
        raise ValueError("w must lie in the open unit disk")
    i = np.arange(degree + 1)
    log_mod = -0.5 * log_monomial_norm_sq(nu, i) + 0.5 * nu * np.log1p(-t)
    if w == 0:
        coeffs = np.zeros(degree + 1, dtype=complex)
        coeffs[0] = 1.0
        return coeffs, 0.0
    log_mod = log_mod + i * np.log(abs(w))
    phase = np.exp(-1j * i * np.angle(w))
    coeffs = np.exp(log_mod) * phase
    tail = max(0.0, 1.0 - float(np.sum(np.abs(coeffs) ** 2)))
    return coeffs, tail


def lowest_transported_reference(g, nu, degree, count):
    a, b = np.asarray(g[0], dtype=complex), np.asarray(g[1], dtype=complex)
    ts = np.arange(degree + 1)
    if np.all(b == 0):
        out = np.zeros((degree + 1, count), dtype=complex)
        out[0, :] = np.conj(a) ** (-nu)
        return out
    x = b / np.conj(a)
    log_nb = (gammaln(nu + ts) - gammaln(nu) - gammaln(ts + 1.0))[:, None]
    with np.errstate(divide="ignore"):
        log_mod = (
            log_nb
            + ts[:, None] * np.where(np.abs(x) > 0, np.log(np.abs(x)), -np.inf)[None, :]
            + 0.5 * (gammaln(ts + 1.0) - (gammaln(nu + ts) - gammaln(nu)))[:, None]
            - nu * np.log(np.abs(a))[None, :]
        )
    phase = np.exp(
        1j * (ts[:, None] * np.angle(x)[None, :] - nu * np.angle(np.conj(a))[None, :])
    )
    out = np.exp(log_mod) * phase
    zero = np.abs(x) == 0
    if np.any(zero):
        out[:, zero] = 0.0
        out[0, zero] = np.conj(a[zero]) ** (-nu)
    return out


def raise_transported_reference(v, g, nu, j):
    a, b = np.asarray(g[0], dtype=complex), np.asarray(g[1], dtype=complex)
    n = v.shape[0]
    ts = np.arange(n)
    shift = np.sqrt(ts[1:] / (nu + ts[1:] - 1.0))
    y = np.empty_like(v)
    y[0] = -np.conj(b) * v[0]
    y[1:] = a * shift[:, None] * v[:-1] - np.conj(b) * v[1:]
    scale = math.sqrt((nu + j) / (j + 1.0))
    if np.all(b == 0):
        return (y / np.conj(a)) * scale
    if v.shape[1] == 1:
        bands = np.zeros((2, n), dtype=complex)
        bands[0, :] = np.conj(a)
        bands[1, :-1] = -b * shift
        h = solve_banded((1, 0), bands, y[:, 0])[:, None]
        return h * scale
    h = np.empty_like(v)
    ca = np.conj(a)
    h[0] = y[0] / ca
    for t in range(1, n):
        h[t] = (y[t] + b * shift[t - 1] * h[t - 1]) / ca
    return h * scale


def transported_reference(nu, elements, index, degree):
    single = hasattr(elements, "a")
    if single:
        gs = ([elements.a], [elements.b])
    else:
        gs = ([g.a for g in elements], [g.b for g in elements])
    a = np.asarray(gs[0], dtype=complex)
    b = np.asarray(gs[1], dtype=complex)
    if np.any(np.abs(np.conj(b) / np.conj(a)) >= 1.0):
        raise ValueError("|g.0| must be < 1")
    v = lowest_transported_reference((a, b), nu, degree, len(a))
    for j in range(index):
        v = raise_transported_reference(v, (a, b), nu, j)
    tails = np.maximum(0.0, 1.0 - np.sum(np.abs(v) ** 2, axis=0))
    if single:
        return v[:, 0], float(tails[0])
    return v, tails


def husimi_grid_reference(A, index, ws):
    ws = np.asarray(ws, dtype=complex).ravel()
    diag = np.real(np.diag(A.matrix))
    out = np.empty(ws.shape)
    chunk = max(1, (1 << 22) // (A.degree + 1))
    for i0 in range(0, ws.size, chunk):
        gs = [transporter(w) for w in ws[i0 : i0 + chunk]]
        vecs, _ = transported_reference(A.weight, gs, index, A.degree)
        if A.is_diagonal:
            out[i0 : i0 + chunk] = diag @ (np.abs(vecs) ** 2)
        else:
            out[i0 : i0 + chunk] = np.real(
                np.einsum("mz,mn,nz->z", np.conj(vecs), A.matrix, vecs)
            )
    return out


ELEMENTS = {
    "rotation": GroupElement.rotation(0.7),
    "transporter(0)": transporter(0.0),
    "transporter(|w|=0.95)": transporter(0.95 * np.exp(2.2j)),
    "rotated transporter": GroupElement.rotation(1.1) @ transporter(0.6 - 0.3j),
}


@pytest.mark.parametrize("name", list(ELEMENTS))
@pytest.mark.parametrize("nu", [2, 5, 800])
def test_transported_vectors_match_reference(name, nu):
    # at nu = 800, |a|^nu overflows for |a| > 2.43 (|w| = 0.95 has |a| = 3.2)
    g = ELEMENTS[name]
    for index in range(5):
        for degree in (0, 7, 200):
            v, tail = transported_basis_vectors(nu, g, index, degree)
            ref, ref_tail = transported_reference(nu, g, index, degree)
            assert np.abs(v - ref).max() <= phase_tol(nu), (index, degree)
            assert abs(tail - ref_tail) <= phase_tol(nu)


@pytest.mark.parametrize("index", range(5))
def test_large_weight_transport_within_raise_conditioning(index):
    # each raise step multiplies a cancelling difference by
    # sqrt((nu+j)/(j+1)), so rounding in column 0 grows by that factor per
    # step in both formulas (against 60-digit coefficients at nu = 800 both
    # err by 1e-13 at index 0 and 4e-10 at index 4)
    g, nu = GroupElement.rotation(2.4) @ transporter(0.3j), 800
    growth = math.exp(0.5 * -log_monomial_norm_sq(nu, index))
    v, tail = transported_basis_vectors(nu, g, index, 300)
    ref, ref_tail = transported_reference(nu, g, index, 300)
    assert np.abs(v).max() > 0.1  # the mass lies below the cut
    assert np.abs(v - ref).max() <= phase_tol(nu) * growth
    assert abs(tail - ref_tail) <= phase_tol(nu) * growth


@pytest.mark.parametrize("name", list(ELEMENTS))
@pytest.mark.parametrize("nu", [3, 800])
def test_group_action_matrix_matches_reference(name, nu):
    g, degree = ELEMENTS[name], 60
    op, _ = group_action_matrix(g, nu, degree)
    av, bv = np.asarray([g.a]), np.asarray([g.b])
    v = lowest_transported_reference((av, bv), nu, degree, 1)
    cols = [v[:, 0]]
    for j in range(degree):
        v = raise_transported_reference(v, (av, bv), nu, j)
        cols.append(v[:, 0])
    assert np.abs(op.matrix - np.stack(cols, axis=1)).max() <= phase_tol(nu)


@pytest.mark.parametrize("w", [0.0, 0.3, 0.5 * np.exp(1.3j), 0.95j, -0.95])
@pytest.mark.parametrize("nu", [2, 3.5, 800])
def test_coherent_vector_matches_reference(w, nu):
    v, tail = coherent_vector(nu, w, 200)
    ref, ref_tail = coherent_vector_reference(nu, w, 200)
    assert np.abs(v - ref).max() <= TOL
    assert abs(tail - ref_tail) <= TOL


def test_husimi_grid_last_chunk_single_point():
    # degree + 1 = 2048 gives chunks of 2048 points; 2049 points leave one
    # point in the last chunk
    degree = 2047
    rng = np.random.default_rng(3)
    diag = rng.random(degree + 1)
    A = TruncatedOperator(2, np.diag(diag / diag.sum()), hermitian=True)
    ws = 0.9 * np.sqrt(rng.random(2049)) * np.exp(2j * np.pi * rng.random(2049))
    out = husimi_grid(A, 1, ws)
    assert np.abs(out - husimi_grid_reference(A, 1, ws)).max() <= TOL
    assert out[-1] == husimi_grid(A, 1, ws[-1:])[0]


@pytest.mark.parametrize("index", range(5))
def test_husimi_grid_dense_matches_reference(index):
    A = random_psd(3, 12, 3, seed=4)
    rng = np.random.default_rng(5)
    ws = 0.95 * np.sqrt(rng.random(300)) * np.exp(2j * np.pi * rng.random(300))
    ws = np.concatenate([[0.0], ws])
    # the reference's log|x| mask computes 0 * -inf at the origin next to
    # other points (it warned, then overwrote that column); the new path has
    # no such step, and the suite turns warnings into errors
    with np.errstate(invalid="ignore"):
        ref = husimi_grid_reference(A, index, ws)
    assert np.abs(husimi_grid(A, index, ws) - ref).max() <= TOL


@pytest.mark.parametrize("dense", [False, True])
def test_husimi_grid_large_weight_on_quadrature_nodes(dense):
    # the outermost of 400 Legendre radial nodes has 1-|w|^2 ~ 9e-6, so
    # |a| ~ 333 and |a|^mu overflows for mu >= 123
    mu = 150
    quad = build_quadrature(400, 4, 2.0)
    assert np.abs(quad.nodes).max() ** 2 > 1.0 - 1e-5
    A = random_psd(mu, 10, 3, seed=7)
    if not dense:
        A = TruncatedOperator(mu, np.diag(np.diag(A.matrix)), hermitian=True)
    out = husimi_grid(A, 1, quad.nodes)
    assert np.all(np.isfinite(out))
    assert np.abs(out - husimi_grid_reference(A, 1, quad.nodes)).max() <= TOL


def test_husimi_grid_builds_no_group_element(monkeypatch):
    def refuse(self):
        raise AssertionError("GroupElement constructed")

    A = random_psd(2, 6, 2, seed=6)
    ws = [0.1, 0.5j, -0.3 + 0.2j]
    expect = husimi_grid(A, 2, ws)
    monkeypatch.setattr(GroupElement, "__post_init__", refuse)
    assert np.array_equal(husimi_grid(A, 2, ws), expect)


class TestArrayFormRejects:
    def test_determinant_off_one(self):
        a = np.array([1.0, 2.0])
        b = np.array([0.0, 0.5])  # |a|^2 - |b|^2 = 3.75 for the second pair
        with pytest.raises(ValueError, match=r"\|a\|\^2 - \|b\|\^2"):
            transported_basis_vectors(2, (a, b), 0, 4)

    def test_base_point_outside_disk(self):
        # |a| = |b|: the scale-aware determinant tolerance passes it at this
        # size, so the |g.0| < 1 check must catch it
        a = np.array([1.0, 1e8])
        b = np.array([0.0, 1e8])
        with pytest.raises(ValueError, match=r"\|g\.0\| must be < 1"):
            transported_basis_vectors(2, (a, b), 0, 4)

    @pytest.mark.parametrize("w", [1.0, 0.6 + 0.8j, 1.5j])
    def test_point_on_or_outside_circle(self, w):
        with pytest.raises(ValueError, match="open unit disk"):
            transporter_coefficients(np.array([0.2, w]))
        A = random_psd(2, 4, 1, seed=1)
        with pytest.raises(ValueError, match="open unit disk"):
            husimi_grid(A, 0, [0.2, w])

    def test_array_form_matches_group_elements(self):
        ws = np.array([0.0, 0.4 - 0.2j, 0.95])
        a, b = transporter_coefficients(ws)
        v, tails = transported_basis_vectors(3, (a, b), 2, 40)
        for col, w in enumerate(ws):
            single, tail = transported_basis_vectors(3, transporter(w), 2, 40)
            assert np.array_equal(v[:, col], single)
            # same coefficients; only the summation order of the tail differs
            assert tails[col] == pytest.approx(tail, abs=1e-15)
