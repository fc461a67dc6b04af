"""The lab's LAPACK call sequences, bitwise against scipy.linalg.

``reilly_lab._lapack`` loads scipy's ``_flapack`` extension by file
location and the call sites replay the argument sequences of scipy 1.17's
``eigh_tridiagonal(select="i")``, ``eigh(subset_by_index=...)`` and
``solve_banded((1, 1), ...)``.  Here scipy.linalg itself is the oracle,
on fixed inputs, compared with ``np.array_equal``.
"""

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal, solve_banded

from reilly_lab import _lapack
from reilly_lab.bodies import build_spheroid_body
from reilly_lab.models import build_model_density
from reilly_lab.operators import (DIRICHLET, NEUMANN, PERIODIC, _eigh,
                                  assemble_laplacian, solve_poisson)
from reilly_lab.presets import ellipse_body, model_density_params

MODEL = build_model_density(model_density_params(1.0, 5.0), 401)


def _values(want, vectors):
    """The eigenvalues of a scipy.linalg result, with or without vectors."""
    return want[0] if vectors else want


# the library asks for eigenvalues only; they are bitwise scipy's whether
# scipy computes the eigenvectors too or not, so the gap eigenvector that
# tools/output_digest.py takes from scipy belongs to the library's gap
@pytest.mark.parametrize("vectors", [False, True])
@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("bc", [NEUMANN, DIRICHLET])
def test_tridiagonal_eigensolve_is_eigh_tridiagonal(bc, count, vectors):
    op = assemble_laplacian(MODEL, bc)
    diag, off = op.symmetric_form()
    if bc == DIRICHLET:
        diag, off = diag[1:-1], off[1:-1]
    want = eigh_tridiagonal(-diag, -off, eigvals_only=not vectors,
                            select="i", select_range=(0, count - 1))
    assert np.array_equal(_eigh(op, count - 1), _values(want, vectors))


# plane bodies need an even grid; the subset size m that ?syevr returns is
# odd and even here
@pytest.mark.parametrize("vectors", [False, True])
@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("m", [128, 512])
def test_periodic_eigensolve_is_eigh_by_index(m, count, vectors):
    op = assemble_laplacian(ellipse_body(1.5, 1.0, m), PERIODIC)
    want = eigh(-op.deflated_symmetric(), eigvals_only=not vectors,
                subset_by_index=[0, count - 1])
    assert np.array_equal(_eigh(op, count - 1), _values(want, vectors))


def _recorded_systems(monkeypatch, run):
    """The (dl, d, du, b) of every tridiagonal solve `run` makes, each with
    the x it returned."""
    calls = []
    real = _lapack._gtsv

    def record(dl, d, du, b):
        x = real(dl, d, du, b)
        calls.append((dl, d, du, b, x))
        return x

    monkeypatch.setattr(_lapack, "_gtsv", record)
    run()
    return calls


def _poisson_bands(op, f, bc_data):
    """The banded system solve_poisson solved through solve_banded((1, 1))
    before it called LAPACK itself: the Dirichlet interior with its wall
    data moved to the right-hand side, or the Neumann system with its first
    unknown pinned to zero after f is projected to zero weighted mean."""
    if op.bc == DIRICHLET:
        ab = np.zeros((3, op.n - 2))
        ab[0, 1:], ab[1], ab[2, :-1] = (op.upper[1:-1], op.diag[1:-1],
                                        op.lower[1:-1])
        rhs = f[1:-1].copy()
        rhs[0] -= op.lower[0] * bc_data[0]
        rhs[-1] -= op.upper[-1] * bc_data[1]
        return ab, rhs
    ab = np.zeros((3, op.n))
    ab[0, 1:], ab[1], ab[2, :-1] = op.upper, op.diag, op.lower
    ab[0, 1], ab[1, 0] = 0.0, 1.0
    rhs = f - float(np.dot(op.weights, f)) / float(np.sum(op.weights))
    rhs[0] = 0.0
    return ab, rhs


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
def test_poisson_solves_are_solve_banded(monkeypatch, bc):
    op = assemble_laplacian(MODEL, bc)
    f = np.cos(3.0 * MODEL.t)
    f -= np.dot(op.weights, f) / np.sum(op.weights)
    calls = _recorded_systems(
        monkeypatch, lambda: solve_poisson(op, f, (1.0, -0.5)))
    assert len(calls) == 1
    ab, rhs = _poisson_bands(op, f, (1.0, -0.5))
    assert np.array_equal(calls[0][4], solve_banded((1, 1), ab, rhs))


def test_not_a_knot_solves_are_solve_banded(monkeypatch):
    # tests/test_models.py pins the systems themselves: the splines are
    # bitwise CubicSpline's
    calls = _recorded_systems(
        monkeypatch, lambda: build_spheroid_body(1.0, 1.3, n_cells=256))
    assert len(calls) == 2
    for dl, d, du, b, x in calls:
        ab = np.zeros((3, d.size))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        assert np.array_equal(x, solve_banded((1, 1), ab, b,
                                              check_finite=False))


def test_singular_tridiagonal_system_raises_like_solve_banded():
    zeros = np.zeros(4)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _lapack._gtsv(zeros[1:], zeros, zeros[1:], np.ones(4))
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack._gtsv(zeros[1:], np.full(4, np.nan), zeros[1:], np.ones(4))


def test_loader_names_the_path_it_looked_for(tmp_path):
    with pytest.raises(ImportError, match="LAPACK") as err:
        _lapack._load(tmp_path)
    assert str(tmp_path / "_flapack") in str(err.value)
