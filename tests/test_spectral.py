"""Eigenfunctions, spherical functions, multipliers, and chain integrals."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from oracles import (
    chain2_complex_quadrature_oracle,
    chain2_series_oracle,
    chain_estimate_oracle,
    eigen_residual_oracle,
)

from diskchannels.disk import gauss_jacobi
from diskchannels.specfun import berezin_eigenvalue
from diskchannels.spectral import (
    _chain_chunk_sums,
    _chain_weight_sums,
    _link_modulus_sq,
    chain2_tensor_quadrature,
    chained_kernel_integral,
    eigen_relation_residual,
    eigenfunction,
    inverse_multiplier,
    inverse_multiplier_bound,
    spherical_function,
)


class TestEigenfunction:
    def test_center_value(self):
        for lam in (0.0, 1.3, -2.0):
            assert eigenfunction(lam, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_modulus(self):
        z, b = 0.3 + 0.4j, np.exp(0.7j)
        for lam in (0.5, 2.0):
            base = (1 - abs(z) ** 2) / abs(z - b) ** 2
            assert abs(eigenfunction(lam, b, z)) == pytest.approx(
                math.sqrt(base), rel=1e-14
            )

    def test_unit_exponent_poisson_ratio(self):
        # lambda = i makes the exponent exactly 1 (unsquared ratio)
        z, b = 0.2 - 0.5j, 1.0
        base = (1 - abs(z) ** 2) / abs(z - b) ** 2
        assert eigenfunction(1j, b, z) == pytest.approx(base, rel=1e-14)

    def test_boundary_point_validated(self):
        with pytest.raises(ValueError):
            eigenfunction(1.0, 0.5, 0.1)


class TestSphericalFunction:
    def test_center_values(self):
        assert spherical_function(0, 1.3, 0.0) == pytest.approx(1.0, abs=1e-12)
        for n in (1, -2, 5):
            assert abs(spherical_function(n, 1.3, 0.0)) < 1e-12

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        zs = 0.9 * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
        for n in (0, 1, 3):
            for lam in (0.0, 1.0, 4.0):
                vals = spherical_function(n, lam, zs)
                assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            spherical_function(0, 1.0, 0.999)

    def test_base_function_real_and_radial(self):
        lam = 1.7
        for r in (0.2, 0.5, 0.8):
            vals = [
                spherical_function(0, lam, r * np.exp(1j * t))
                for t in (0.0, 1.1, 2.5, 4.0)
            ]
            assert max(abs(v.imag) for v in vals) < 1e-11
            assert max(abs(v - vals[0]) for v in vals) < 1e-10


class TestEigenRelation:
    def test_residuals_meet_gate(self):
        samples = [0.0, 0.3, 0.45j]
        assert eigen_relation_residual(4, 0.0, samples) <= 1e-6
        assert eigen_relation_residual(4, 2.0, samples) <= 1e-6

    def test_boundary_point_independence(self):
        samples = [0.0, 0.25, 0.3j]
        base = eigen_relation_residual(4, 1.0, samples, boundary=1.0)
        for b in (np.exp(0.9j), np.exp(-2.1j)):
            assert abs(eigen_relation_residual(4, 1.0, samples, boundary=b) - base) <= 1e-8

    def test_refinement_in_smooth_regime(self):
        coarse = eigen_relation_residual(3, 1.0, [0.2], 24, 48)
        fine = eigen_relation_residual(3, 1.0, [0.2], 48, 96)
        assert coarse >= 4.0 * fine

    def test_lambda_sequence_is_worst_scalar_residual(self):
        samples = [0.0, 0.3, 0.45j, -0.2 + 0.3j]
        for nu in (2, 4, 8, 16):
            lams = (0.0, 1.0, 2.0)
            each = [eigen_relation_residual(nu, lam, samples, 40, 64) for lam in lams]
            assert eigen_relation_residual(nu, lams, samples, 40, 64) == max(each)

    @pytest.mark.parametrize("nu", [2, 4, 800])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
    def test_matches_complex_exp_integrand(self, nu, lam):
        # the oracle takes e_{lambda,b} as one complex exp; per node the two
        # differ by the exp(log(P)/2) and phase roundings, under
        # (|log P| (1 + lambda)/2 + 7) eps relative, and each side's sums
        # over R radial then A angular nodes add (R + A + 2) eps of the sum
        # of moduli; division and subtraction add a few eps of |B e/e(z0)|
        radial_count, angular_count = 400, 512
        samples = [0.0, 0.3, 0.45j, -0.2 + 0.3j]
        expect, scale = eigen_residual_oracle(nu, lam, samples, radial_count, angular_count)
        bound = (2 * (radial_count + angular_count) + 16) * np.finfo(float).eps * scale
        got = eigen_relation_residual(nu, lam, samples, radial_count, angular_count)
        assert abs(got - expect) <= bound

    @pytest.mark.parametrize("nu", [800, 1000])
    def test_large_weight_residual_keeps_every_sample(self, nu):
        # recentred, the Jacobi rule carries (1-u)^{nu-2} in its weights, so
        # no sample meets an overflowing kernel; 40 x 128 is the runner's grid
        samples = [0.0, 0.3, 0.45j, -0.2 + 0.3j]
        each = [eigen_relation_residual(nu, (0.0, 1.0, 2.0), [z0], 40, 128)
                for z0 in samples]
        assert eigen_relation_residual(nu, (0.0, 1.0, 2.0), samples, 40, 128) == max(each)
        assert all(worst <= 1e-6 for worst in each)

    def test_non_finite_residual_raises(self):
        # at lambda = 1e308 the phase (lambda/2) log(base) of e_{lambda,b}
        # overflows where |log(base)| > 3.6, which the grid reaches, so the
        # quadrature is nan; the target b_nu(lambda) = 0 is finite
        with np.errstate(invalid="ignore", over="ignore"):
            assert not np.isfinite(eigenfunction(1e308, 1.0, 0.99))
            with pytest.raises(FloatingPointError, match="nu = 4"):
                eigen_relation_residual(4, 1e308, [0.3], 8, 8)

    @pytest.mark.parametrize("z0", [1.0, -1j, 0.8 + 0.8j, complex(math.nan, 0.0)])
    def test_sample_off_disk_raises(self, z0):
        # phi(w) = (w + z0)/(1 + conj(z0) w) recentres at z0 only inside the disk
        with pytest.raises(ValueError, match="open unit disk"):
            eigen_relation_residual(4, 0.0, [0.1, z0], 8, 8)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="radial_count"):
            eigen_relation_residual(4, 0.0, [0.1], 0, 8)
        with pytest.raises(ValueError, match="angular_count"):
            eigen_relation_residual(4, 0.0, [0.1], 8, 0)
        with pytest.raises(ValueError, match="lam"):
            eigen_relation_residual(4, [], [0.1], 8, 8)


class TestInverseMultiplier:
    def test_equal_weights(self):
        assert inverse_multiplier(5, 5, 1.3) == pytest.approx(1.0, rel=1e-14)

    def test_uniform_bound(self):
        for nu0 in (2, 3, 5):
            for nu in (nu0, nu0 + 3, nu0 + 20, nu0 + 100):
                bound = inverse_multiplier_bound(nu, nu0)
                for lam in np.linspace(0.0, 30.0, 121):
                    assert inverse_multiplier(nu, nu0, lam) <= bound * (1 + 1e-12)

    def test_factorization(self):
        for (nu, nu0, lam) in [(8, 4, 0.7), (30, 2, 3.0), (100, 7, 12.0)]:
            lhs = inverse_multiplier(nu, nu0, lam) * berezin_eigenvalue(nu, lam)
            assert lhs == pytest.approx(berezin_eigenvalue(nu0, lam), rel=1e-12)

    def test_eigenline_convergence_slope(self):
        nu0, lam = 4, 2.0
        nus = np.array([32, 64, 128, 256, 512])
        diffs = [
            abs(inverse_multiplier(nu, nu0, lam) - berezin_eigenvalue(nu0, lam))
            for nu in nus
        ]
        slope = np.polyfit(np.log(nus), np.log(diffs), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)


class TestChainIntegral:
    def test_single_link_exact(self):
        assert chained_kernel_integral(1, 4, 123, 10) == (1.0, 0.0)

    def test_determinism(self):
        a = chained_kernel_integral(2, 4, 99, 50000)
        b = chained_kernel_integral(2, 4, 99, 50000)
        assert a == b

    def test_bound_at_small_weights(self):
        for nu in (4, 8):
            est, half = chained_kernel_integral(2, nu, 2024, 10**6)
            assert est + half <= 81.0

    def test_quadrature_cross_check(self):
        est, half = chained_kernel_integral(2, 16, 7, 10**6)
        quad = chain2_tensor_quadrature(16)
        assert abs(est - quad) <= half

    def test_closed_form_vs_quadrature(self):
        # nu = 4 has the weakest boundary suppression; the tensor rule is the
        # limiting side there
        assert chain2_tensor_quadrature(4) == pytest.approx(
            chain2_series_oracle(4), rel=1e-5
        )
        for nu in (8, 16):
            assert chain2_tensor_quadrature(nu) == pytest.approx(
                chain2_series_oracle(nu), rel=1e-9
            )

    def test_large_weight_limit(self):
        # the exact closed form tends to 4/3 (local fluctuation integral)
        assert chain2_series_oracle(4096) == pytest.approx(4.0 / 3.0, abs=2e-3)

    @pytest.mark.parametrize(
        "nu, radial_count, angular_count",
        [(4, 200, 512), (8, 200, 512), (16, 200, 512), (48, 200, 512),
         (8, 51, 63), (48, 51, 63), (8, 7, 1)],
    )
    def test_quadrature_matches_complex_oracle(self, nu, radial_count, angular_count):
        real = chain2_tensor_quadrature(nu, radial_count, angular_count)
        # one rule (disk.gauss_jacobi), two arithmetics
        u, _, log_weight = gauss_jacobi(radial_count, nu - 2.0)
        assert real == pytest.approx(chain2_complex_quadrature_oracle(
            nu, radial_count, angular_count, (u, np.exp(log_weight))), rel=1e-14)
        # scipy's own rule, whose Beta moments are off by up to 1.4e-12
        # relative on these rules (n = 200, alpha = 46); test_disk holds
        # disk.gauss_jacobi to mpmath
        assert real == pytest.approx(chain2_complex_quadrature_oracle(
            nu, radial_count, angular_count), rel=1e-12)

    @pytest.mark.parametrize("n, nu", [(2, 4), (2, 16), (3, 6)])
    def test_estimate_matches_complex_oracle(self, n, nu):
        # 150000 draws span two full chunks and a partial one
        est, _ = chained_kernel_integral(n, nu, 11, 150000)
        assert est == pytest.approx(chain_estimate_oracle(n, nu, 11, 150000), rel=1e-13)

    @pytest.mark.parametrize("nu", [200, 800])
    def test_large_weight_quadrature_matches_series(self, nu):
        assert abs(chain2_tensor_quadrature(nu) - chain2_series_oracle(nu)) <= 1e-9

    def test_overflowing_quadrature_names_its_weight(self):
        # the largest of 400 nodes at alpha = 298 has 1 - u = 0.08: its
        # Jacobi weight (log -759) underflows to 0, and its kernel at the
        # first midpoint angle exceeds the largest double
        u = gauss_jacobi(400, 298.0)[0].max()
        link = (1.0 - u) ** 2 + 4.0 * u * math.sin(math.pi / 1024) ** 2
        assert -150.0 * math.log(link) > math.log(np.finfo(float).max)
        with pytest.raises(FloatingPointError, match="nu = 300"):
            chain2_tensor_quadrature(300, 400, 512)

    @pytest.mark.parametrize("dtheta", [0.0, 1e-8, 1e-3])
    def test_link_modulus_near_boundary(self, dtheta):
        half = math.sin(0.5 * dtheta)
        for gap in (1e-9, 1e-12, 1e-15):
            # |z| = |w| = 1 - gap, passed as the double x = 1 - |z|^2
            x = gap * (2.0 - gap)
            with mpmath.workdps(40):
                r = mpmath.sqrt(1 - mpmath.mpf(x))
                z = r * mpmath.expj(mpmath.mpf(dtheta))
                exact = abs(1 - z * r) ** 2
                assert abs(_link_modulus_sq(x, x, half * half) / exact - 1) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_chunks_start_anywhere_in_the_stream(self, n):
        # two full chunks of 2^16 samples and a partial one, run last to
        # first, each from a generator advanced to its start
        nus, seed, count = [4.0, 6.0, 16.0], 23, 2 * 2**16 + 1001
        rng = np.random.default_rng(seed)
        sequential = []
        for start in range(0, count, 2**16):
            m = min(2**16, count - start)
            radial = rng.random((n, m))
            sequential.append(_chain_weight_sums(nus, radial, rng.random((n, m))))
        for chunk in reversed(range(3)):
            sums, sums_sq = _chain_chunk_sums(n, nus, seed, count, chunk)
            assert sums.tolist() == sequential[chunk][0].tolist()
            assert sums_sq.tolist() == sequential[chunk][1].tolist()

    def test_estimate_does_not_depend_on_who_maps_the_chunks(self):
        with ThreadPoolExecutor(3) as pool:
            pooled = chained_kernel_integral(2, [4.0, 16.0], 5, 200000, map=pool.map)
        assert pooled == chained_kernel_integral(2, [4.0, 16.0], 5, 200000)

    def test_non_finite_weight_names_its_nu(self):
        # at nu = 1.0001, 1 - |z|^2 = 0.5^10000 underflows to 0: the points
        # sit on the circle, and equal angles give a zero link
        with pytest.raises(FloatingPointError, match="nu = 1.0001$"):
            _chain_weight_sums([4.0, 1.0001], np.full((2, 3), 0.5), np.zeros((2, 3)))

    def test_reused_workspace_changes_no_result(self):
        # a thread's workspace outlives its chunks: a partial chunk, another
        # (n, weights) and a failed pass before full chunks must leave no trace
        seed, count = 29, 2 * 2**16 + 1001
        nus3, nus8 = [4.0, 6.0, 16.0], [8.0, 10.0, 12.0, 16.0, 20.0, 24.0, 32.0, 48.0]
        steps = [(3, nus3, 2), (2, nus8, 0), None, (3, nus3, 0), (3, nus3, 1)]
        expected = [None if step is None else _on_new_thread(
            _sequential_chunk_sums, *step, seed, count) for step in steps]

        def run(step):
            if step is None:
                with pytest.raises(FloatingPointError, match="nu = 1.0001$"):
                    _chain_weight_sums([4.0, 6.0, 1.0001], np.full((3, 3), 0.5),
                                       np.zeros((3, 3)))
                return None
            n, nus, chunk = step
            sums, sums_sq = _chain_chunk_sums(n, nus, seed, count, chunk)
            return sums.tolist(), sums_sq.tolist()

        assert _on_new_thread(lambda: [run(step) for step in steps]) == expected
        with ThreadPoolExecutor(3) as pool:
            assert list(pool.map(run, steps)) == expected

    def test_warm_chunk_allocates_no_draw_sized_array(self):
        # a cold chunk allocates about 7 MiB of temporaries; a warm one
        # writes every array of its pass into the thread's workspace
        nus = [8.0, 10.0, 12.0, 16.0, 20.0, 24.0, 32.0, 48.0]

        def warm_peak():
            _chain_chunk_sums(2, nus, 3, 10**6, 0)
            tracemalloc.start()
            try:
                _chain_chunk_sums(2, nus, 3, 10**6, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _on_new_thread(warm_peak) < 64 * 2**10

    @pytest.mark.parametrize("n", [2, 3])
    def test_estimate_bits_are_pinned(self, n):
        # (estimate, half-width) per weight as float.hex, recorded from the
        # allocating pass that preceded the per-thread workspace; they hang
        # on numpy's float64 exp, log and sin, so they are keyed by dispatch
        introspect = pytest.importorskip("numpy.lib.introspect")
        found = introspect.opt_func_info(func_name="^(exp|log|sin)$", signature="float64")
        targets = {found[name]["dd"]["current"] for name in ("exp", "log", "sin")}
        bits = PINNED_CHAIN_BITS.get(targets.pop()) if len(targets) == 1 else None
        if bits is None or np.__version__ != "2.4.6":
            pytest.skip(f"no bits recorded for numpy {np.__version__} "
                        f"float64 exp/log/sin on {found}")
        got = chained_kernel_integral(n, [4.0, 16.0], 11, 150000)
        assert [(e.hex(), h.hex()) for e, h in got] == bits[n]

    def test_empty_grids_rejected(self):
        with pytest.raises(ValueError, match="sample_count"):
            chained_kernel_integral(2, 4, 1, 0)
        with pytest.raises(ValueError, match="radial_count"):
            chain2_tensor_quadrature(4, 0, 8)
        with pytest.raises(ValueError, match="angular_count"):
            chain2_tensor_quadrature(4, 8, 0)

    def test_longer_chain_runs(self):
        est, half = chained_kernel_integral(3, 6, 5, 50000)
        assert est > 0 and half > 0 and est + half < 3**6


def _on_new_thread(fn, *args):
    """fn(*args) on a thread of its own, whose chain workspace starts empty."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result()


def _sequential_chunk_sums(n, nus, chunk, seed, count):
    """(sums, sums_sq) lists of chunk ``chunk`` from one sequential draw
    stream, checking that the pass leaves its uniforms as they were."""
    rng = np.random.default_rng(seed)
    for start in range(0, chunk * 2**16 + 1, 2**16):
        m = min(2**16, count - start)
        radial = rng.random((n, m))
        angular = rng.random((n, m))
    kept = radial.copy(), angular.copy()
    sums, sums_sq = _chain_weight_sums(nus, radial, angular)
    assert np.array_equal(radial, kept[0]) and np.array_equal(angular, kept[1])
    return sums.tolist(), sums_sq.tolist()


_X86_V4_BITS = {
    2: [("0x1.751f58edebf0ep+0", "0x1.d0c0c47f014e4p-6"),
        ("0x1.5e909e89bf7bap+0", "0x1.01923974cef2bp-6")],
    3: [("0x1.15db34a4621acp+1", "0x1.6aa66776458d9p-4"),
        ("0x1.f0f202e642e8bp+0", "0x1.704cca5334778p-5")],
}
_X86_V3_BITS = {
    2: [("0x1.751f58edebf0fp+0", "0x1.d0c0c47f014e4p-6"),
        ("0x1.5e909e89bf7bap+0", "0x1.01923974cef2bp-6")],
    3: [("0x1.15db34a4621acp+1", "0x1.6aa66776458d9p-4"),
        ("0x1.f0f202e642e8ap+0", "0x1.704cca5334777p-5")],
}
# chained_kernel_integral(n, [4.0, 16.0], 11, 150000) with numpy 2.4.6 on
# x86-64, by the dispatch target of its float64 exp, log and sin: AVX-512
# has its own exp and log; the AVX2 and baseline targets give the same bits
PINNED_CHAIN_BITS = {
    "X86_V4": _X86_V4_BITS,
    "X86_V3": _X86_V3_BITS,
    "baseline(X86_V2)": _X86_V3_BITS,
}


class TestBatches:
    """A sequence of weights returns, bit for bit, each weight's scalar result."""

    @staticmethod
    def _check(fn, nus):
        batch = fn(nus)
        assert isinstance(batch, list) and len(batch) == len(nus)
        assert batch == [fn(nu) for nu in nus]
        assert fn(nus[::-1]) == batch[::-1]

    @pytest.mark.parametrize("radial_count, angular_count", [(200, 512), (51, 63)])
    def test_chain2_quadrature(self, radial_count, angular_count):
        self._check(
            lambda nu: chain2_tensor_quadrature(nu, radial_count, angular_count),
            [4.0, 8.0, 16.0, 48.0],
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chain_estimate(self, n):
        # 150000 draws span two full chunks and a partial one
        self._check(lambda nu: chained_kernel_integral(n, nu, 11, 150000), [4.0, 6.0, 16.0])

    def test_eigen_relation_residual(self):
        samples = [0.0, 0.3, 0.45j, -0.2 + 0.3j]
        self._check(
            lambda nu: eigen_relation_residual(nu, (0.0, 1.0, 2.0), samples, 40, 64),
            [2.0, 4.0, 8.0, 16.0],
        )

    def test_empty_weight_list_rejected(self):
        with pytest.raises(ValueError, match="nu"):
            chain2_tensor_quadrature([])
        with pytest.raises(ValueError, match="nu"):
            chained_kernel_integral(2, [], 1, 10)
        with pytest.raises(ValueError, match="nu"):
            eigen_relation_residual([], 0.0, [0.1], 8, 8)
