"""The row-tiled engine against the untiled one it replaced.

``tests/support.py`` keeps the untiled engine, density and sampler.  The
tiled ones must agree with them at every tile boundary, byte for byte at the
benchmark's shapes, and must not hold a second batch-sized array.  Normal
draws must also match the spherical formula ``(||z|| / d) * (z / ||z||)``
that the sampler used before ``z / d``, up to rounding.  Neither the memory
layout of a model's factors nor that of the rows may change a byte, on
either side of the engine's row-length rule.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayvariate import densities as dn
from arrayvariate import multilinear as ml
from arrayvariate import sampling as sp
from support import (
    apply_modes_untiled,
    logpdf_elliptical_rvecs_untiled,
    random_model,
    sample_elliptical_rvecs_spherical,
    sample_elliptical_rvecs_untiled,
    with_kernel,
)

KERNELS = {"normal": dn.Kernel.normal(), "t5": dn.Kernel.student_t(5.0)}


def tile_rows(m):
    return max(8, ml.TILE_BYTES // (8 * m))


@st.composite
def tiled_cases(draw):
    """A model of order 1-4 (dimensions 1-8, so the 8-row floor is reached),
    a kernel, and a batch size at a tile boundary."""
    order = draw(st.integers(1, 4))
    dims = tuple(draw(st.lists(st.integers(1, 8), min_size=order, max_size=order)))
    tile = tile_rows(int(np.prod(dims)))
    n = draw(st.sampled_from([0, 1, tile - 1, tile, tile + 1, 3 * tile + 5]))
    seed = draw(st.integers(0, 2**32 - 1))
    model = random_model(np.random.default_rng(seed), dims, KERNELS[draw(st.sampled_from(sorted(KERNELS)))])
    return model, n, seed


def assert_close_to_largest_cell(out, expected):
    assert out.shape == expected.shape
    if expected.size:
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestAgainstUntiled:
    @settings(max_examples=60)
    @given(tiled_cases())
    def test_apply_modes(self, case):
        model, n, seed = case
        rows = np.random.default_rng(seed).standard_normal((n, model.m))
        out = ml.apply_modes(model.factors, rows, model.shape)
        assert_close_to_largest_cell(out, apply_modes_untiled(model.factors, rows, model.shape))

    @settings(max_examples=60)
    @given(tiled_cases())
    def test_sampler_same_seed(self, case):
        model, n, seed = case
        got = sp.sample_elliptical_rvecs(model, n, sp.RandomStream(seed))
        assert_close_to_largest_cell(got, sample_elliptical_rvecs_untiled(model, n, sp.RandomStream(seed)))

    @settings(max_examples=60)
    @given(tiled_cases())
    def test_density(self, case):
        model, n, seed = case
        rows = sample_elliptical_rvecs_untiled(model, n, sp.RandomStream(seed))
        got = dn.logpdf_elliptical_rvecs(model, rows)
        np.testing.assert_allclose(got, logpdf_elliptical_rvecs_untiled(model, rows), rtol=1e-13, atol=0)

    @settings(max_examples=60)
    @given(tiled_cases(), st.data())
    def test_normal_draws_are_a_prefix_of_a_longer_run(self, case, data):
        model, n, seed = case
        model = with_kernel(model, KERNELS["normal"])
        k = data.draw(st.integers(0, n))
        longer = sp.sample_elliptical_rvecs(model, n, sp.RandomStream(seed))
        assert_close_to_largest_cell(sp.sample_elliptical_rvecs(model, k, sp.RandomStream(seed)), longer[:k])

    @settings(max_examples=100)
    @given(st.integers(1, 5000), st.integers(0, 2000))
    def test_tiles_cover_the_batch(self, m, n):
        seen = []
        enter = lambda t: (np.subtract, np.zeros((t.stop - t.start, m)), 0.0)
        for tile, block in ml.map_tiles([np.ones((1, m))], (m,), n, enter):
            assert block.shape == (1, tile.stop - tile.start)
            seen.append(tile)
        bounds = [0] + [t.stop for t in seen]
        assert [t.start for t in seen] == bounds[:-1] and bounds[-1] == n
        # no tile has fewer than 8 rows unless the batch does, and none runs past a tile and 7 rows
        assert all(min(8, n) <= t.stop - t.start <= tile_rows(m) + 7 for t in seen)


BENCHMARK_SHAPES = [((2, 3), 20_000, "t5"), ((8, 8, 8), 10_000, "normal"), ((32, 32, 16), 200, "normal")]


class TestAgainstSphericalFormula:
    @settings(max_examples=60)
    @given(tiled_cases())
    def test_normal_draws(self, case):
        model, n, seed = case
        model = with_kernel(model, KERNELS["normal"])
        got = sp.sample_elliptical_rvecs(model, n, sp.RandomStream(seed))
        assert_close_to_largest_cell(got, sample_elliptical_rvecs_spherical(model, n, sp.RandomStream(seed)))

    @pytest.mark.parametrize("dims, n", [(dims, n) for dims, n, _ in BENCHMARK_SHAPES])
    def test_normal_draws_at_benchmark_shapes(self, dims, n):
        model = random_model(np.random.default_rng(66), dims, KERNELS["normal"])
        got = sp.sample_elliptical_rvecs(model, n, sp.RandomStream(67))
        assert_close_to_largest_cell(got, sample_elliptical_rvecs_spherical(model, n, sp.RandomStream(67)))


class TestBenchmarkShapesBytes:
    @pytest.mark.parametrize("dims, n, kernel", BENCHMARK_SHAPES)
    def test_byte_identical_to_untiled(self, dims, n, kernel):
        model = random_model(np.random.default_rng(60), dims, KERNELS[kernel])
        rows = sp.sample_elliptical_rvecs(model, n, sp.RandomStream(61))
        expected = sample_elliptical_rvecs_untiled(model, n, sp.RandomStream(61))
        assert rows.tobytes() == np.ascontiguousarray(expected).tobytes()
        density = dn.logpdf_elliptical_rvecs(model, rows)
        assert density.tobytes() == logpdf_elliptical_rvecs_untiled(model, rows).tobytes()
        mapped = ml.apply_modes(model.inv_factors, rows, dims)
        expected = apply_modes_untiled(model.inv_factors, rows, dims)
        assert mapped.tobytes() == np.ascontiguousarray(expected).tobytes()


def sliced(a):
    """A non-contiguous view holding the values of the matrix ``a``."""
    big = np.zeros((a.shape[0], 2 * a.shape[1]))
    big[:, ::2] = a
    return big[:, ::2]


LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray, "sliced": sliced}

# shapes on both sides of the row-length rule, then the benchmark's
LAYOUT_CASES = [((2, 3), 300, "t5"), ((2, 2, 2), 300, "normal"), ((3, 4), 300, "t5"), ((4, 2, 2), 300, "normal")]
LAYOUT_CASES += BENCHMARK_SHAPES


class TestLayoutIndependence:
    def test_cases_cover_both_sides_of_the_rule(self):
        assert {ml.reads_rows(int(np.prod(dims))) for dims, _, _ in LAYOUT_CASES} == {False, True}

    @pytest.mark.parametrize("dims, n, kernel", LAYOUT_CASES)
    def test_factor_layout_does_not_change_a_byte(self, dims, n, kernel):
        base = random_model(np.random.default_rng(68), dims, KERNELS[kernel])
        results = {}
        for name, layout in LAYOUTS.items():
            model = dn.KroneckerModel(base.mean, [layout(f) for f in base.factors], base.kernel)
            rows = sp.sample_elliptical_rvecs(model, n, sp.RandomStream(69))
            results[name] = [
                rows.tobytes(),
                dn.logpdf_elliptical_rvecs(model, rows).tobytes(),
                ml.apply_modes(model.inv_factors, rows, dims).tobytes(),
                ml.apply_modes(model.factors, rows, dims).tobytes(),
            ]
        assert results["F"] == results["C"]
        assert results["sliced"] == results["C"]

    @pytest.mark.parametrize("dims, n, kernel", LAYOUT_CASES)
    def test_row_layout_does_not_change_a_byte(self, dims, n, kernel):
        model = random_model(np.random.default_rng(70), dims, KERNELS[kernel])
        rows = sp.sample_elliptical_rvecs(model, n, sp.RandomStream(71))
        mapped = ml.apply_modes(model.inv_factors, rows, dims).tobytes()
        density = dn.logpdf_elliptical_rvecs(model, rows).tobytes()
        for layout in (np.asfortranarray, sliced):
            assert ml.apply_modes(model.inv_factors, layout(rows), dims).tobytes() == mapped
            assert dn.logpdf_elliptical_rvecs(model, layout(rows)).tobytes() == density


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_density_peak_is_a_few_tiles(self):
        model = random_model(np.random.default_rng(62), (8, 8, 8), dn.Kernel.normal())
        rows = sp.sample_elliptical_rvecs(model, 10_000, sp.RandomStream(63))
        peak, _ = traced_peak(lambda: dn.logpdf_elliptical_rvecs(model, rows))
        assert peak < 8e6  # rows are 41 MB

    def test_sampler_holds_one_batch(self):
        model = random_model(np.random.default_rng(64), (8, 8, 8), dn.Kernel.normal())
        peak, rows = traced_peak(lambda: sp.sample_elliptical_rvecs(model, 10_000, sp.RandomStream(65)))
        assert peak < 1.05 * rows.nbytes
