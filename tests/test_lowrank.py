import numpy as np
import pytest

from xgblora import lowrank as lr
from xgblora.tensor import Rng


class TestSvdTopr:
    def test_diag_truncation_error(self):
        got = lr.svd_topr(np.diag([3.0, 2.0, 1.0]), r=1)
        assert got.s[0] == pytest.approx(3.0, rel=1e-10)
        err = np.sqrt(((np.diag([3.0, 2.0, 1.0]) - got.approx) ** 2).sum())
        assert err == pytest.approx(np.sqrt(5.0), rel=1e-8)
        assert got.tail_sq == pytest.approx(5.0, rel=1e-8)

    def test_rank_one_exact_recovery(self):
        m = np.outer([1.0, -2.0, 0.5], [3.0, 1.0, 4.0, 1.0])
        got = lr.svd_topr(m, r=1)
        assert np.abs(m - got.approx).max() < 1e-10

    def test_norm_identity_random(self):
        m = Rng(77).gaussian((20, 30))
        s = lr.svd_topr(m, min(m.shape)).s
        assert (s * s).sum() == pytest.approx((m * m).sum(), rel=1e-8)

    def test_singular_values_non_increasing(self):
        m = Rng(5).gaussian((16, 12))
        got = lr.svd_topr(m, r=12)
        assert np.all(np.diff(got.s) <= 1e-12)

    def test_orthonormal_factors(self):
        m = Rng(9).gaussian((25, 18))
        got = lr.svd_topr(m, r=10)
        assert np.abs(got.u.T @ got.u - np.eye(10)).max() < 1e-8
        assert np.abs(got.v.T @ got.v - np.eye(10)).max() < 1e-8

    def test_reconstruction_error_matches_tail(self):
        for seed in range(5):
            m = Rng(100 + seed).gaussian((15, 11))
            r = 1 + seed * 2
            got = lr.svd_topr(m, r=r)
            err_sq = ((m - got.approx) ** 2).sum()
            assert err_sq == pytest.approx(got.tail_sq, rel=1e-8, abs=1e-12)

    def test_matches_library_svd_oracle(self):
        # the same LAPACK routine as svd_topr, so this pins the wrapper only; the
        # independent checks are the reconstruction error equal to the tail,
        # orthonormal factors, ordering and the norm identity
        m = Rng(4).gaussian((30, 22))
        s_mine = lr.svd_topr(m, min(m.shape)).s
        s_np = np.linalg.svd(m, compute_uv=False)
        assert np.abs(s_mine - s_np).max() < 1e-8

    def test_wide_matrix(self):
        m = Rng(13).gaussian((8, 40))
        got = lr.svd_topr(m, r=3)
        best = np.linalg.svd(m, compute_uv=False)
        assert got.s == pytest.approx(best[:3], rel=1e-8)

    def test_rank_out_of_range(self):
        m = np.ones((3, 4))
        with pytest.raises(ValueError):
            lr.svd_topr(m, r=0)
        with pytest.raises(ValueError):
            lr.svd_topr(m, r=4)

    def test_tall_matrix(self):
        m = Rng(21).gaussian((600, 12))
        got = lr.svd_topr(m, r=3)
        s_np = np.linalg.svd(m, compute_uv=False)
        assert got.s == pytest.approx(s_np[:3], rel=1e-6)
        err_sq = ((m - got.approx) ** 2).sum()
        assert err_sq == pytest.approx((s_np[3:] ** 2).sum(), rel=1e-6)

    def test_determinism(self):
        m = Rng(3).gaussian((700, 9))
        a = lr.svd_topr(m, r=2)
        b = lr.svd_topr(m, r=2)
        assert np.array_equal(a.approx, b.approx)


class TestNnls:
    def test_matches_unconstrained_when_positive(self):
        x = np.abs(Rng(5).gaussian((30, 3))) + 0.1
        true = np.array([1.5, 0.7, 2.0])
        y = x @ true
        got = lr.nnls(x, y)
        assert np.abs(got - true).max() < 1e-8

    def test_clamps_negative_solution(self):
        x = np.column_stack([np.ones(10), np.linspace(0, 1, 10)])
        y = -x[:, 1] + 0.01  # pulls the slope negative
        got = lr.nnls(x, y)
        assert np.all(got >= 0)
        # feasible optimum must beat the all-zero fit
        assert ((y - x @ got) ** 2).sum() <= (y**2).sum() + 1e-12

    def test_zero_target(self):
        x = Rng(6).gaussian((8, 2))
        got = lr.nnls(x, np.zeros(8))
        assert np.abs(got).max() < 1e-8


class TestRSquared:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert lr.r_squared(y, y) == 1.0

    def test_mean_only_fit_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert lr.r_squared(y, np.full(3, 2.0)) == pytest.approx(0.0)

