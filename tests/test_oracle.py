import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import rng_for, src_env
from oracle import OracleConfig, brute_numerical_range, sphere_extremes
from test_cli import GOLDEN_CASES

from pairframe import numerical_range_bounds

FAST = OracleConfig(sphere_samples=20_000, theta_samples=1024)


def test_package_import_leaves_scipy_unloaded():
    """The package runs on numpy alone: a child interpreter imports it, runs
    every golden CLI command through ``cli.main``, and has still not loaded
    scipy, which only this reference oracle needs."""
    code = (
        "import contextlib, io, json, sys, pairframe, pairframe.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [pairframe.cli.main(args) for args in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'scipy' in sys.modules]))"
    )
    commands = json.dumps([list(args) for args, _ in GOLDEN_CASES])
    proc = subprocess.run(
        [sys.executable, "-c", code, commands], capture_output=True, check=True, env=src_env()
    )
    assert json.loads(proc.stdout) == [[0] * len(GOLDEN_CASES), False]


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(sphere_samples=0)
    with pytest.raises(ValueError):
        OracleConfig(theta_samples=0)


def test_dimension_guard():
    with pytest.raises(ValueError, match="dim <= 3"):
        sphere_extremes(lambda f: 0.0, 4)
    with pytest.raises(ValueError, match="dim <= 3"):
        brute_numerical_range(np.eye(4))
    with pytest.raises(ValueError):
        sphere_extremes(lambda f: 0.0, 0)
    with pytest.raises(ValueError):
        brute_numerical_range(np.ones((2, 3)))


def test_constant_objective():
    lo, hi = sphere_extremes(lambda pts: np.full(np.atleast_2d(pts).shape[0], 2.5), 2, FAST)
    assert lo == 2.5 and hi == 2.5


def test_norm_objective_is_constant_one():
    def sqnorm(pts):
        pts = np.atleast_2d(pts)
        return np.linalg.norm(pts, axis=1) ** 2

    lo, hi = sphere_extremes(sqnorm, 3, FAST)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


def test_fourth_moment_extremes():
    """sum |f_i|^4 on the C^2 sphere ranges over [1/2, 1]."""

    def quartic(pts):
        pts = np.atleast_2d(pts)
        return (np.abs(pts) ** 4).sum(axis=1)

    lo, hi = sphere_extremes(quartic, 2, FAST)
    assert lo == pytest.approx(0.5, abs=1e-6)
    assert hi == pytest.approx(1.0, abs=1e-6)


def test_objective_must_map_a_block_to_one_value_per_point():
    """An objective that returns anything but one value per point raises."""

    def scalar(pts):
        return float(np.abs(pts[0, 0]) ** 2)

    with pytest.raises(ValueError, match="shape"):
        sphere_extremes(scalar, 2, FAST)


def test_oracle_is_deterministic():
    rng = rng_for(101)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = brute_numerical_range(m, FAST)
    b = brute_numerical_range(m, FAST)
    assert a == b


def test_brute_numerical_range_hermitian():
    m = np.diag([0.5, 2.0])
    lo, hi = brute_numerical_range(m, FAST)
    assert lo == pytest.approx(0.5, abs=1e-6)
    assert hi == pytest.approx(2.0, abs=1e-6)


def test_brute_numerical_range_swap_touches_origin():
    """|<Sf, f>| for the antidiagonal matrix dips to 0 on the sphere."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    lo, hi = brute_numerical_range(swap, FAST)
    assert lo <= 1e-6
    assert hi == pytest.approx(1.0, abs=1e-6)


def test_oracle_agrees_with_fast_path():
    for seed in (7, 8):
        rng = rng_for(seed)
        for dim in (2, 3):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            lo_fast, hi_fast = numerical_range_bounds(m)
            lo_ref, hi_ref = brute_numerical_range(m)
            scale = max(1.0, hi_fast)
            assert abs(lo_fast - lo_ref) <= 1e-3 * scale
            assert abs(hi_fast - hi_ref) <= 1e-3 * scale
