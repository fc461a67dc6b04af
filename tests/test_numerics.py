import math

import numpy as np
import pytest

from reilly_lab import numerics
from reilly_lab.numerics import (diff1, diff2, fourier_diff_matrix,
                                 observed_orders, periodic_diff1,
                                 periodic_diff2, periodic_trapezoid,
                                 richardson, simpson_uniform, spectral_diff)


def test_diff_exact_on_quartics():
    t = np.linspace(-1.0, 2.0, 41)
    h = t[1] - t[0]
    y = t**4 - 2 * t**2 + t
    np.testing.assert_allclose(diff1(y, h), 4 * t**3 - 4 * t + 1,
                               rtol=0, atol=1e-11)
    np.testing.assert_allclose(diff2(y, h), 12 * t**2 - 4, rtol=0, atol=1e-9)


def test_diff_orders_on_smooth_data():
    # coarse enough that the h^4 truncation still dominates the eps/h^2
    # roundoff of the second-derivative stencil
    errs1, errs2 = [], []
    for n in (50, 100, 200):
        t = np.linspace(0.0, 1.0, n)
        h = t[1] - t[0]
        errs1.append(np.max(np.abs(diff1(np.exp(t), h) - np.exp(t))))
        errs2.append(np.max(np.abs(diff2(np.exp(t), h) - np.exp(t))))
    for errs in (errs1, errs2):
        orders = observed_orders(errs, floor=0.0)
        assert min(orders) > 3.5


def test_periodic_diff_fourth_order():
    errs = []
    for m in (32, 64, 128):
        y = np.arange(m) * (2 * np.pi / m)
        h = 2 * np.pi / m
        errs.append(np.max(np.abs(periodic_diff1(np.sin(3 * y), h)
                                  - 3 * np.cos(3 * y))))
    orders = observed_orders(errs, floor=0.0)
    assert min(orders) > 3.8
    y = np.arange(64) * (2 * np.pi / 64)
    np.testing.assert_allclose(periodic_diff2(np.cos(y), 2 * np.pi / 64),
                               -np.cos(y), atol=1e-5)


def test_fourier_matrix_antisymmetric_and_exact():
    m = 32
    d = fourier_diff_matrix(m)
    np.testing.assert_allclose(d + d.T, 0.0, atol=1e-13)
    y = np.arange(m) * (2 * np.pi / m)
    np.testing.assert_allclose(d @ np.sin(2 * y), 2 * np.cos(2 * y),
                               atol=1e-11)
    np.testing.assert_allclose(d @ np.ones(m), 0.0, atol=1e-13)


@pytest.mark.parametrize("m", [4, 8, 128, 256])
def test_fourier_matrix_matches_rolled_circulant(m):
    # reference: the circulant built row by row with np.roll, transposed;
    # same values and the same F-ordered layout (BLAS takes one path)
    d = fourier_diff_matrix(m)
    j = np.arange(m)
    col = np.zeros(m)
    col[1:] = 0.5 * (-1.0) ** j[1:] / np.tan(j[1:] * np.pi / m)
    rows = np.array([np.roll(col, i) for i in range(m)])
    assert np.array_equal(d, rows.T)
    assert d.flags.f_contiguous and d.strides == rows.T.strides


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 128, 1024])
@pytest.mark.parametrize("tail", [(), (2,), (3,)])
def test_periodic_diff_matches_rolled_stencils(m, tail):
    # reference: the four-np.roll expressions; the wrap-padded slices feed
    # the same operands in the same order, so the results are bitwise equal
    y = np.random.default_rng(m).standard_normal((m, *tail))
    h = 2.0 * np.pi / m
    d1 = (8.0 * (np.roll(y, -1, 0) - np.roll(y, 1, 0))
          - (np.roll(y, -2, 0) - np.roll(y, 2, 0))) / (12.0 * h)
    d2 = (-(np.roll(y, -2, 0) + np.roll(y, 2, 0))
          + 16.0 * (np.roll(y, -1, 0) + np.roll(y, 1, 0))
          - 30.0 * y) / (12.0 * h * h)
    assert np.array_equal(periodic_diff1(y, h), d1)
    assert np.array_equal(periodic_diff2(y, h), d2)


def test_spectral_diff_matches_matrix():
    m = 64
    y = np.arange(m) * (2 * np.pi / m)
    f = np.exp(np.cos(y))
    d = fourier_diff_matrix(m)
    np.testing.assert_allclose(spectral_diff(f, 1), d @ f, atol=1e-10)


def _ref_spectral_diff(values, order):
    # the 1-D formula as it stood before (m, k) inputs were accepted
    values = np.asarray(values, dtype=float)
    m = values.size
    k = np.fft.rfftfreq(m, d=1.0 / m)
    fk = np.fft.rfft(values)
    if order % 2 == 1 and m % 2 == 0:
        fk[-1] = 0.0
    fk = fk * (1j * k) ** order
    return np.fft.irfft(fk, n=m)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_spectral_diff_along_axis0_matches_columns(order):
    rng = np.random.default_rng(order)
    sizes = list(range(4, 34)) + [63, 64, 127, 128, 255, 256, 511, 512,
                                  1000, 1023, 1024]
    for m in sizes:
        for cols in (2, 3):
            y = rng.standard_normal((m, cols))
            d = spectral_diff(y, order)
            assert d.shape == (m, cols)
            for j in range(cols):
                column = spectral_diff(y[:, j], order)
                assert np.array_equal(column, _ref_spectral_diff(y[:, j],
                                                                 order)), m
                assert np.array_equal(d[:, j], column), (m, cols, j)


def test_simpson_exact_on_cubics_both_parities():
    for n in (21, 22):
        t = np.linspace(0.0, 2.0, n)
        h = t[1] - t[0]
        val = simpson_uniform(t**3 - t, h)
        assert val == pytest.approx(2.0, abs=1e-13)


def test_periodic_trapezoid_spectral():
    m = 64
    y = np.arange(m) * (2 * np.pi / m)
    assert periodic_trapezoid(np.cos(y) ** 2, 2 * np.pi / m) == pytest.approx(
        np.pi, abs=1e-12)


def test_observed_orders_floor_semantics():
    assert observed_orders([1e-2, 2.5e-3, 6.25e-4], floor=0.0) == pytest.approx(
        [2.0, 2.0])
    orders = observed_orders([1e-13, 1e-13, 1e-13])
    assert all(math.isinf(o) for o in orders)


def test_trig_polynomial_evaluation_and_derivatives():
    from reilly_lab.trig import TrigPolynomial
    poly = TrigPolynomial((0.5, 1.0, 0.0, 0.25), (0.0, 0.0, 0.7))
    m = 64
    y = np.arange(m) * (2 * np.pi / m)
    direct = (0.5 + 1.0 * np.cos(y) + 0.25 * np.cos(3 * y)
              + 0.7 * np.sin(2 * y))
    np.testing.assert_allclose(poly(y), direct, atol=1e-12)
    # exact derivatives agree with FFT differentiation of the samples
    for order in (1, 2, 3):
        np.testing.assert_allclose(poly(y, derivative=order),
                                   spectral_diff(direct, order), atol=1e-9)
    total = poly + TrigPolynomial.constant(2.0)
    np.testing.assert_allclose(total(y), direct + 2.0, atol=1e-12)
    np.testing.assert_allclose(poly.scaled(-3.0)(y), -3.0 * direct,
                               atol=1e-12)


def test_richardson_eliminates_leading_order():
    exact = 1.2345
    coarse = exact + 4e-4
    fine = exact + 1e-4
    assert richardson((coarse, fine), ratio=2.0, order=2) == pytest.approx(
        exact, abs=1e-12)


@pytest.mark.parametrize("m", [64, 127, 128, 256])
@pytest.mark.parametrize("batch", [1, 3])
def test_stencils_on_batches_match_columns(m, batch):
    # a batch of flows holds its members on axis 1, (m, B, k); each
    # member's derivative must have the bits of its own call
    rng = np.random.default_rng(1000 * m + batch)
    y = rng.standard_normal((m, batch, 3))
    h = 2.0 * math.pi / m
    stencils = {"periodic_diff1": lambda a: periodic_diff1(a, h),
                "periodic_diff2": lambda a: periodic_diff2(a, h)}
    stencils.update({f"spectral_diff-{order}":
                     (lambda a, order=order: spectral_diff(a, order))
                     for order in (1, 2, 3)})
    for name, stencil in stencils.items():
        d = stencil(y)
        assert d.shape == y.shape, name
        for b in range(batch):
            assert np.array_equal(d[:, b], stencil(y[:, b])), (name, b)
            for j in range(3):
                assert np.array_equal(d[:, b, j], stencil(y[:, b, j])), \
                    (name, b, j)


@pytest.mark.parametrize("m", [1, 5, 128, 1024])
@pytest.mark.parametrize("tail", [(), (2,), (3, 2)])
def test_fused_periodic_stencil_matches_both_stencils_with_one_pad(
        monkeypatch, m, tail):
    y = np.random.default_rng(m).standard_normal((m, *tail))
    h = 2.0 * np.pi / m
    want = (periodic_diff1(y, h), periodic_diff2(y, h))
    pads = []
    real_pad = numerics._wrap_pad
    monkeypatch.setattr(numerics, "_wrap_pad",
                        lambda a, *axis: pads.append(a) or real_pad(a, *axis))
    d1, d2 = numerics.periodic_diff12(y, h)
    assert len(pads) == 1
    assert np.array_equal(d1, want[0]) and np.array_equal(d2, want[1])


@pytest.mark.parametrize("m", [1, 5, 128, 512])
@pytest.mark.parametrize("k", [1, 3])
def test_last_axis_stencils_are_the_transposed_bits(m, k):
    # the sphere's coordinate-major (k, m) markers differentiate along the
    # last axis into C-contiguous (k, m) arrays with the bits of the
    # marker-major stencils
    y = np.random.default_rng(m + k).standard_normal((k, m))
    h = 2.0 * np.pi / m
    want = numerics.periodic_diff12(np.ascontiguousarray(y.T), h)
    for got, ref in zip(numerics._periodic_diff12(y, h, -1), want):
        assert got.shape == (k, m) and got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(ref.T).tobytes()


def test_spectral_symbol_is_cached_read_only():
    symbol = numerics._spectral_symbol(64, 1)
    assert numerics._spectral_symbol(64, 1) is symbol
    assert not symbol.flags.writeable
    with pytest.raises(ValueError):
        symbol[1] = 0.0
    k = np.fft.rfftfreq(64, d=1.0 / 64)
    for order in (1, 2, 3):
        assert np.array_equal(numerics._spectral_symbol(64, order),
                              (1j * k) ** order)
