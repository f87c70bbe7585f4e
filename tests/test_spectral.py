"""Eigenfunctions, the eigen-relation residual, and chain integrals."""

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
    chain_weight_sums,
    eigen_residual_oracle,
)
from pinned import pinned_bits

from diskchannels import specfun
from diskchannels.disk import gauss_jacobi
from diskchannels.spectral import (
    _chain_chunk_sums,
    _link_modulus_sq,
    chain2_tensor_quadrature,
    chained_kernel_integral,
    eigen_relation_residual,
    eigenfunction,
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

    @pytest.mark.parametrize("args", [
        (2, 400, 128), (4, 134, 128), (8, 58, 128), (16, 40, 128), (3, 57, 131)])
    def test_residual_bits_are_pinned(self, args):
        # float.hex of the residual at lambda = 0, 1 and 2 on the four
        # samples of a berezin-eigen row, recorded from the whole-grid
        # evaluation that preceded the column blocks; the first four are
        # the runner's grids at nu = 2, 4, 8 and 16
        nu, radial_count, angular_count = args
        samples = [0.0, 0.3, 0.45j, -0.2 + 0.3j]
        got = tuple(eigen_relation_residual(nu, lam, samples, radial_count,
                                            angular_count).hex()
                    for lam in (0.0, 1.0, 2.0))
        assert got == pinned_bits(PINNED_RESIDUAL_BITS)[args]

    def test_residual_memory_is_its_rule_and_a_block(self):
        # the grid is evaluated a block of whole angular columns at a time,
        # so past its Gauss-Jacobi rule the nu = 2 row holds about 0.4 MiB
        # (4.7 MiB in all with the whole 400 x 128 grid)
        samples = [0.0, 0.3, 0.45j, -0.2 + 0.3j]
        eigen_relation_residual(2.0, (0.0, 1.0, 2.0), samples, 400, 128)
        peaks = []
        for fn, args in [(gauss_jacobi, (400, 0.0)),
                         (eigen_relation_residual, (2.0, (0.0, 1.0, 2.0), samples, 400, 128))]:
            tracemalloc.start()
            try:
                fn(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**19

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
                assert abs(_link_modulus_sq(x, x, (2.0 * half) ** 2) / exact - 1) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chunks_start_anywhere_in_the_stream(self, n):
        # two full chunks of 2^16 samples and a partial one, which ends in
        # its first block or in its fourth, run last to first, each with its
        # generators positioned at its rows' starts
        nus, seed = [4.0, 6.0, 16.0], 23
        for count in (2 * 2**16 + 1001, 2 * 2**16 + 3 * 2**13 + 1001):
            rng = np.random.default_rng(seed)
            sequential = []
            for start in range(0, count, 2**16):
                m = min(2**16, count - start)
                radial = rng.random((n, m))
                sequential.append(chain_weight_sums(nus, radial, rng.random((n, m))))
            for chunk in reversed(range(3)):
                sums, sums_sq = _chain_chunk_sums(n, nus, seed, count, chunk)
                assert sums.tolist() == sequential[chunk][0].tolist()
                assert sums_sq.tolist() == sequential[chunk][1].tolist()

    def test_estimate_does_not_depend_on_who_maps_the_chunks(self):
        with ThreadPoolExecutor(3) as pool:
            pooled = chained_kernel_integral(2, [4.0, 16.0], 5, 200000, map=pool.map)
        assert pooled == chained_kernel_integral(2, [4.0, 16.0], 5, 200000)

    def test_a_call_frees_the_calling_threads_buffers(self):
        # the chunks run on this thread fill its buffers; the residual's
        # grid columns too, and neither outlives its call
        chained_kernel_integral(3, [4.0, 16.0], 5, 20000)
        assert getattr(specfun._thread_state, "buffers", None) is None
        eigen_relation_residual(4.0, [0.0, 1.0], [0.1j], 40, 32)
        assert getattr(specfun._thread_state, "buffers", None) is None

    def test_non_finite_weight_names_its_nu(self):
        # at nu = 1.0001, 1 - |z|^2 = 0.5^10000 underflows to 0: the points
        # sit on the circle, and equal angles give a zero link
        with pytest.raises(FloatingPointError, match="nu = 1.0001$"):
            chain_weight_sums([4.0, 1.0001], np.full((2, 3), 0.5), np.zeros((2, 3)))

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
                    chain_weight_sums([4.0, 6.0, 1.0001], np.full((3, 3), 0.5),
                                       np.zeros((3, 3)))
                return None
            n, nus, chunk = step
            sums, sums_sq = _chain_chunk_sums(n, nus, seed, count, chunk)
            return sums.tolist(), sums_sq.tolist()

        assert _on_new_thread(lambda: [run(step) for step in steps]) == expected
        with ThreadPoolExecutor(3) as pool:
            assert list(pool.map(run, steps)) == expected

    def test_one_thread_runs_chunks_of_two_seeds_in_turn(self):
        # a thread's generators are positioned from the seed of each chunk:
        # alternating seeds on one thread gives the bits of fresh threads
        nus, count = [4.0, 16.0], 2 * 2**16 + 1001
        steps = [(31, 1), (37, 0), (31, 2), (37, 1), (31, 0), (37, 0)]

        def run(seed, chunk):
            sums, sums_sq = _chain_chunk_sums(2, nus, seed, count, chunk)
            return sums.tolist(), sums_sq.tolist()

        expected = [_on_new_thread(run, *step) for step in steps]
        assert _on_new_thread(lambda: [run(*step) for step in steps]) == expected

    @pytest.mark.parametrize("n, limit", [(2, 4 * 2**20), (3, 4.5 * 2**20)])
    def test_cold_chunk_memory_is_a_few_blocks(self, n, limit):
        # the workspace holds one block of 2^13 draws per row, not the
        # chunk's 2 n 2^16 (5.0 MiB at n = 2 and 6.5 MiB at n = 3 with
        # them); at eight weights its block arrays take 2.75 MiB at n = 2
        # and 3.9 MiB at n = 3
        nus = [8.0, 10.0, 12.0, 16.0, 20.0, 24.0, 32.0, 48.0]
        _on_new_thread(_chain_chunk_sums, n, nus, 3, 10**6, 0)  # imports

        def cold_peak():
            tracemalloc.start()
            try:
                _chain_chunk_sums(n, nus, 3, 10**6, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _on_new_thread(cold_peak) <= limit

    def test_warm_chunk_allocates_no_draw_sized_array(self):
        # a cold chunk allocates its workspace, about 2.8 MiB at n = 2 and
        # eight weights; a warm one writes every array of its pass into it
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
        # allocating pass that preceded the per-thread workspace
        bits = pinned_bits(PINNED_CHAIN_BITS)
        got = chained_kernel_integral(n, [4.0, 16.0], 11, 150000)
        assert [(e.hex(), h.hex()) for e, h in got] == bits[n]

    @pytest.mark.parametrize("args", [
        (8,), (10,), (12,), (16,), (20,), (24,), (32,), (48,), (200,), (800,),
        (48, 51, 63), (8, 17, 33), (16, 17, 33), (8, 7, 17),
    ])
    def test_quadrature_bits_are_pinned(self, args):
        # float.hex of the value, recorded from the one-row-at-a-time kernel
        # that preceded the row blocks; 51 rows of 32 angles end on a partial
        # block, and on 7 radii and 9 angle pairs one 49 x 9 matvec over the
        # block would round differently from the seven 7 x 9 per-row matvecs
        bits = pinned_bits(PINNED_QUADRATURE_BITS)
        assert chain2_tensor_quadrature(*args).hex() == bits[args]

    @pytest.mark.parametrize("args, limit", [((8, 200, 512), 2 * 2**20), ((8,), 2**20)])
    def test_quadrature_memory_is_bounded(self, args, limit):
        # the kernel is held in blocks of whole rows of at most 2^16 floats,
        # never as the n^2 x M tensor (82 MB at 200 x 512); a 200-node row
        # alone is 51,200 floats, and the rule's own n x n work adds to it
        chain2_tensor_quadrature(*args)
        tracemalloc.start()
        try:
            chain2_tensor_quadrature(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit

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
    sums, sums_sq = chain_weight_sums(nus, radial, angular)
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
# x86-64, by the dispatch target of its float64 exp, log and sin and the
# OpenBLAS core (tests/pinned.py): AVX-512 has its own exp and log; the AVX2
# and baseline targets give the same bits, and so do the SkylakeX and
# Haswell kernels
PINNED_CHAIN_BITS = {
    (target, core): bits
    for target, bits in [("X86_V4", _X86_V4_BITS), ("X86_V3", _X86_V3_BITS),
                         ("baseline(X86_V2)", _X86_V3_BITS)]
    for core in ("SkylakeX", "Haswell")
}

# chain2_tensor_quadrature(*args), keyed like PINNED_CHAIN_BITS; AVX-512
# differs from the other targets at nu = 24, 48 and 800
_X86_V4_QUADRATURE_BITS = {
    (8,): "0x1.605d8081bde78p+0",
    (10,): "0x1.5de2f3eb7bc66p+0",
    (12,): "0x1.5c50df05b5c5ep+0",
    (16,): "0x1.5a7066e8c89d4p+0",
    (20,): "0x1.595b5d57490e0p+0",
    (24,): "0x1.58a72d47056bap+0",
    (32,): "0x1.57cadd8e14f0dp+0",
    (48,): "0x1.56f3e20076b52p+0",
    (200,): "0x1.55b6fe0f01ceap+0",
    (800,): "0x1.556da4302bfa8p+0",
    (48, 51, 63): "0x1.56f3e20076adap+0",
    (8, 17, 33): "0x1.605cfff05c35ep+0",
    (16, 17, 33): "0x1.5a7066b20bb1dp+0",
    (8, 7, 17): "0x1.60484cc3fc2e5p+0",
}
_X86_V3_QUADRATURE_BITS = {
    **_X86_V4_QUADRATURE_BITS,
    (24,): "0x1.58a72d47056bbp+0",
    (48,): "0x1.56f3e20076b53p+0",
    (800,): "0x1.556da4302bfaap+0",
}
# OpenBLAS's Haswell kernel, which an AVX2-only or AMD Zen machine runs,
# moves the last bit at five or seven grids
_X86_V4_HASWELL_QUADRATURE_BITS = {
    **_X86_V4_QUADRATURE_BITS,
    (16,): "0x1.5a7066e8c89d5p+0",
    (24,): "0x1.58a72d47056bcp+0",
    (32,): "0x1.57cadd8e14f0cp+0",
    (200,): "0x1.55b6fe0f01ce8p+0",
    (8, 7, 17): "0x1.60484cc3fc2e6p+0",
}
_X86_V3_HASWELL_QUADRATURE_BITS = {
    **_X86_V4_HASWELL_QUADRATURE_BITS,
    (200,): "0x1.55b6fe0f01ce9p+0",
    (800,): "0x1.556da4302bfa9p+0",
}
PINNED_QUADRATURE_BITS = {
    ("X86_V4", "SkylakeX"): _X86_V4_QUADRATURE_BITS,
    ("X86_V3", "SkylakeX"): _X86_V3_QUADRATURE_BITS,
    ("baseline(X86_V2)", "SkylakeX"): _X86_V3_QUADRATURE_BITS,
    ("X86_V4", "Haswell"): _X86_V4_HASWELL_QUADRATURE_BITS,
    ("X86_V3", "Haswell"): _X86_V3_HASWELL_QUADRATURE_BITS,
    ("baseline(X86_V2)", "Haswell"): _X86_V3_HASWELL_QUADRATURE_BITS,
}


# eigen_relation_residual(nu, lam, samples, radial_count, angular_count) at
# lam = 0, 1, 2, keyed like PINNED_CHAIN_BITS; AVX-512 differs from AVX2 at
# (4, 134, 128) and (3, 57, 131), and the baseline target from both on
# every grid
_X86_V4_RESIDUAL_BITS = {
    (2, 400, 128): ('0x1.11bb1cc000000p-27', '0x1.6e531e0029ef5p-29', '0x1.2c34440000ddap-28'),
    (4, 134, 128): ('0x1.d400000000000p-45', '0x1.3b268cad1409ep-45', '0x1.4b76bd123c26fp-46'),
    (8, 58, 128): ('0x1.e600000000000p-46', '0x1.ce48d38a9e42dp-46', '0x1.95539ccd30e09p-46'),
    (16, 40, 128): ('0x1.9400000000000p-46', '0x1.8644b752155f4p-46', '0x1.6e7cc2848a6c0p-46'),
    (3, 57, 131): ('0x1.b6826a0000000p-30', '0x1.7f025c0114299p-31', '0x1.1f331c005e17ap-30'),
}
_X86_V3_RESIDUAL_BITS = {
    **_X86_V4_RESIDUAL_BITS,
    (4, 134, 128): ('0x1.d400000000000p-45', '0x1.3b268cad1409ep-45', '0x1.4b6a8549fef71p-46'),
    (3, 57, 131): ('0x1.b682680000000p-30', '0x1.7f025c0113c98p-31', '0x1.1f331c005e17ap-30'),
}
_BASELINE_RESIDUAL_BITS = {
    (2, 400, 128): ('0x1.11bb1d0000000p-27', '0x1.6e531f0029c22p-29', '0x1.2c34448000cedp-28'),
    (4, 134, 128): ('0x1.d400000000000p-45', '0x1.3d441b3f93994p-45', '0x1.4d54c22afb4f5p-46'),
    (8, 58, 128): ('0x1.e800000000000p-46', '0x1.d0b4d75ed1b2cp-46', '0x1.9a6b6fc8d33afp-46'),
    (16, 40, 128): ('0x1.9800000000000p-46', '0x1.88895e37548aep-46', '0x1.7321c3d105e25p-46'),
    (3, 57, 131): ('0x1.b6826e0000000p-30', '0x1.7f025c0113b65p-31', '0x1.1f331e005af15p-30'),
}
# the same on OpenBLAS's Haswell kernel, which moves every grid
_X86_V4_HASWELL_RESIDUAL_BITS = {
    (2, 400, 128): ('0x1.11bb1cc000000p-27', '0x1.6e531e0029f5cp-29', '0x1.2c34440000daep-28'),
    (4, 134, 128): ('0x1.d400000000000p-45', '0x1.3af05d6a65739p-45', '0x1.4b91d9fcbf0f2p-46'),
    (8, 58, 128): ('0x1.e600000000000p-46', '0x1.ce5210475c543p-46', '0x1.95539ccd30e09p-46'),
    (16, 40, 128): ('0x1.9200000000000p-46', '0x1.8643d4d061cf2p-46', '0x1.6e7f21f6a822ep-46'),
    (3, 57, 131): ('0x1.b6826a0000000p-30', '0x1.7f025c0113c4bp-31', '0x1.1f331c005e397p-30'),
}
_X86_V3_HASWELL_RESIDUAL_BITS = {
    **_X86_V4_HASWELL_RESIDUAL_BITS,
    (2, 400, 128): ('0x1.11bb1d0000000p-27', '0x1.6e531e0029f7bp-29', '0x1.2c34440000daep-28'),
    (4, 134, 128): ('0x1.d400000000000p-45', '0x1.3ad86ba1a1a58p-45', '0x1.4b97f65b25aa4p-46'),
    (3, 57, 131): ('0x1.b6826a0000000p-30', '0x1.7f0260010de5ap-31', '0x1.1f331c005e330p-30'),
}
_BASELINE_HASWELL_RESIDUAL_BITS = {
    (2, 400, 128): ('0x1.11bb1d0000000p-27', '0x1.6e531f0029c22p-29', '0x1.2c34444000cd8p-28'),
    (4, 134, 128): ('0x1.d400000000000p-45', '0x1.3d2d5405170f5p-45', '0x1.4ce6524c49499p-46'),
    (8, 58, 128): ('0x1.e800000000000p-46', '0x1.ce9fce07df0f0p-46', '0x1.9a6b6fc8d33afp-46'),
    (16, 40, 128): ('0x1.9800000000000p-46', '0x1.887228213e601p-46', '0x1.7321c3d105e25p-46'),
    (3, 57, 131): ('0x1.b6826e0000000p-30', '0x1.7f0260010de5ap-31', '0x1.1f331e005bd62p-30'),
}
PINNED_RESIDUAL_BITS = {
    ("X86_V4", "SkylakeX"): _X86_V4_RESIDUAL_BITS,
    ("X86_V3", "SkylakeX"): _X86_V3_RESIDUAL_BITS,
    ("baseline(X86_V2)", "SkylakeX"): _BASELINE_RESIDUAL_BITS,
    ("X86_V4", "Haswell"): _X86_V4_HASWELL_RESIDUAL_BITS,
    ("X86_V3", "Haswell"): _X86_V3_HASWELL_RESIDUAL_BITS,
    ("baseline(X86_V2)", "Haswell"): _BASELINE_HASWELL_RESIDUAL_BITS,
}


class TestBatches:
    """A sequence of weights returns, bit for bit, each weight's scalar
    Monte Carlo estimate."""

    @staticmethod
    def _check(fn, nus):
        batch = fn(nus)
        assert isinstance(batch, list) and len(batch) == len(nus)
        assert batch == [fn(nu) for nu in nus]
        assert fn(nus[::-1]) == batch[::-1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chain_estimate(self, n):
        # 150000 draws span two full chunks and a partial one
        self._check(lambda nu: chained_kernel_integral(n, nu, 11, 150000), [4.0, 6.0, 16.0])

    def test_empty_weight_list_rejected(self):
        with pytest.raises(ValueError, match="nu"):
            chained_kernel_integral(2, [], 1, 10)
