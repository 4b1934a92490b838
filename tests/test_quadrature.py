"""Quadrature schemes on integrands with known values, including the
integrable endpoint powers they exist for."""

import math

import pytest

from expwell import quadrature
from expwell.errors import QuadratureNotConverged
from expwell.quadrature import gauss_geometric, tanh_sinh


def test_tanh_sinh_smooth():
    assert tanh_sinh(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)


def test_tanh_sinh_inverse_sqrt_endpoint():
    val = tanh_sinh(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_tanh_sinh_power_endpoint():
    p = 0.766
    val = tanh_sinh(lambda x: x ** p, 0.0, 10.0)
    assert val == pytest.approx(10.0 ** (1 + p) / (1 + p), rel=1e-12)


def test_tanh_sinh_endpoint_peak():
    # the middle nodes carry nothing; the mass sits next to x = 1
    val = tanh_sinh(lambda x: x ** 200, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 201.0, rel=1e-13)


def test_tanh_sinh_needs_levels(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_LEVELS", 1)
    with pytest.raises(QuadratureNotConverged):
        tanh_sinh(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)


def test_gauss_geometric_power_endpoint():
    val = gauss_geometric(lambda x: x ** 0.2, 1.0)
    assert val == pytest.approx(1.0 / 1.2, rel=1e-12)


def test_scheme_dispatch_agreement():
    f = lambda x: x ** 0.35 * math.exp(-x)
    a = tanh_sinh(f, 0.0, 6.0)
    b = gauss_geometric(f, 6.0)
    assert a == pytest.approx(b, abs=1e-10)
