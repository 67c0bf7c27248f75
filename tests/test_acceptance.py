"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all);
the assertion fires after the line is printed so failures still report.
"""

import math
import time

import numpy as np
from scipy import stats

from arrayvariate import cli
from arrayvariate import densities as dn
from arrayvariate import kronecker as kr
from arrayvariate import linalg
from arrayvariate import multilinear as ml
from arrayvariate import sampling as sp
from arrayvariate import verify as vf
from arrayvariate.array_core import rvec, write_arrays
from arrayvariate.linalg import write_matrix
from support import (
    chain_trace,
    lstsq_residual,
    model_radii,
    monolinear_equiv_check,
    random_model,
    random_shape,
    sq_norm,
    to_monolinear,
    well_conditioned,
    with_kernel,
)


def report(num, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


def test_c1_monolinear_equivalence():
    gen = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        dims = random_shape(gen, max_order=5, max_dim=4, max_cells=512)
        maps = [gen.standard_normal((int(gen.integers(1, 5)), m)) for m in dims]
        x = gen.standard_normal(dims)
        worst = max(worst, monolinear_equiv_check(maps, x))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed <= 30.0
    assert report(1, "monolinear equivalence, 1000 instances up to order 5 / m 512",
                  ok, f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_c2_kronecker_identity_suite():
    gen = np.random.default_rng(1002)
    failures = []

    def trial_dims():
        return int(gen.integers(2, 5))

    worst_mixed = 0.0
    for _ in range(200):
        n, p = trial_dims(), trial_dims()
        a1, a2 = gen.standard_normal((2, n, n))
        b1, b2 = gen.standard_normal((2, p, p))
        gap = np.max(np.abs(kr.inv_kron_chain([a1, b1]) @ kr.inv_kron_chain([a2, b2])
                            - kr.inv_kron_chain([a1 @ a2, b1 @ b2])))
        worst_mixed = max(worst_mixed, gap)
    if worst_mixed > 1e-10:
        failures.append(f"mixed-product {worst_mixed:.2e}")

    worst = 0.0
    for _ in range(200):
        a = well_conditioned(gen, trial_dims())
        b = well_conditioned(gen, trial_dims())
        gap = np.max(np.abs(linalg.inverse(kr.inv_kron_chain([a, b]))
                            - kr.inv_kron_chain([linalg.inverse(a), linalg.inverse(b)])))
        worst = max(worst, gap)
    if worst > 1e-9:
        failures.append(f"inverse {worst:.2e}")

    worst = 0.0
    for _ in range(200):
        ra, rb = trial_dims(), trial_dims()
        a = well_conditioned(gen, ra + 1, int(gen.integers(1, ra + 1)))
        b = well_conditioned(gen, rb + 1, int(gen.integers(1, rb + 1)))
        gap = np.max(np.abs(linalg.l_inverse(kr.inv_kron_chain([a, b]))
                            - kr.inv_kron_chain([linalg.l_inverse(a), linalg.l_inverse(b)])))
        worst = max(worst, gap)
    if worst > 1e-9:
        failures.append(f"l-inverse {worst:.2e}")

    worst = 0.0
    for _ in range(200):
        a1 = gen.standard_normal((trial_dims(), trial_dims()))
        a2 = gen.standard_normal(a1.shape)
        b = gen.standard_normal((trial_dims(), trial_dims()))
        alpha, beta = gen.standard_normal(2)
        gap = max(
            np.max(np.abs(kr.inv_kron_chain([a1 + a2, b]) - kr.inv_kron_chain([a1, b]) - kr.inv_kron_chain([a2, b]))),
            np.max(np.abs(kr.inv_kron_chain([b, a1 + a2]) - kr.inv_kron_chain([b, a1]) - kr.inv_kron_chain([b, a2]))),
            np.max(np.abs(kr.inv_kron_chain([alpha * a1, beta * b]) - alpha * beta * kr.inv_kron_chain([a1, b]))),
        )
        worst = max(worst, gap)
    if worst > 1e-12:
        failures.append(f"bilinearity {worst:.2e}")

    worst = 0.0
    for _ in range(200):
        na, nb = trial_dims(), trial_dims()
        a = gen.standard_normal((na, na))
        b = gen.standard_normal((nb, nb))
        lhs = chain_trace([a, b])
        rhs = float(np.trace(kr.inv_kron_chain([a, b])))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    if worst > 1e-10:
        failures.append(f"trace {worst:.2e}")

    worst = 0.0
    for _ in range(200):
        a = well_conditioned(gen, trial_dims())
        b = well_conditioned(gen, trial_dims())
        lhs = dn.KroneckerModel(np.zeros((len(a), len(b))), [a, b], dn.Kernel.normal()).log_jac
        rhs = np.linalg.slogdet(kr.inv_kron_chain([a, b]))[1]
        worst = max(worst, abs(lhs - rhs))
    if worst > 1e-9:
        failures.append(f"determinant {worst:.2e}")

    worst = 0.0
    for _ in range(200):
        na, nb = int(gen.integers(2, 4)), int(gen.integers(2, 4))
        a = gen.standard_normal((na, na))
        a = 0.5 * (a + a.T)
        b = gen.standard_normal((nb, nb))
        b = 0.5 * (b + b.T)
        prod = kr.inv_kron_chain([a, b])
        got = np.sort(np.linalg.eigvalsh(0.5 * (prod + prod.T)))
        expected = np.sort(np.outer(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)).ravel())
        worst = max(worst, float(np.max(np.abs(got - expected))))
    if worst > 1e-8:
        failures.append(f"eigenvalue-multiset {worst:.2e}")

    ok = not failures
    assert report(2, "Kronecker identity suite, 7 properties x 200 trials", ok,
                  "; ".join(failures) if failures else "all within tolerance")


def test_c3_jacobian_and_normalization():
    gen = np.random.default_rng(1003)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        dims = random_shape(gen, max_order=3, max_dim=4, max_cells=64)
        fs = [well_conditioned(gen, d) for d in dims]
        direct = np.linalg.slogdet(kr.inv_kron_chain(fs))[1]
        worst = max(worst, abs(dn.KroneckerModel(np.zeros(dims), fs, dn.Kernel.normal()).log_jac - direct))
    jac_ok = worst <= 1e-9

    shapes = {1: (1,), 2: (2,), 4: (2, 2), 6: (2, 3)}
    failures = []
    for kernel in (dn.Kernel.normal(), dn.Kernel.student_t(5.0)):
        for m, dims in shapes.items():
            factors = [well_conditioned(gen, d) for d in dims]
            mean = gen.standard_normal(dims)
            model = dn.KroneckerModel(mean, factors, kernel)
            rep = vf.check_normalization(model, 200_000, sp.RandomStream(1300 + m))
            if not rep.passed:
                failures.append(f"{rep.name} z={rep.statistic:.2f}")
    elapsed = time.monotonic() - start
    ok = jac_ok and not failures and elapsed <= 120.0
    detail = f"max jacobian dev {worst:.2e}, {elapsed:.1f}s"
    if failures:
        detail += "; " + "; ".join(failures)
    assert report(3, "Jacobian identity and density normalization (normal, t5; m=1,2,4,6)", ok, detail)


def test_c4_normal_density_consistency():
    gen = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(200):
        dims = random_shape(gen, max_order=3, max_dim=4, max_cells=24)
        factors = [well_conditioned(gen, d) for d in dims]
        mean = gen.standard_normal(dims)
        model = dn.KroneckerModel(mean, factors, dn.Kernel.normal())
        dist = to_monolinear(model)
        x = mean + gen.standard_normal(dims)
        rel = abs(math.expm1(dn.logpdf_elliptical(model, x) - dist.logpdf(rvec(x))))
        worst = max(worst, rel)
    ok = worst <= 1e-10
    assert report(4, "structured vs monolinear normal density, 200 pairs m <= 24", ok,
                  f"max rel dev {worst:.2e}")


def test_c5_sampling_laws():
    n = 50_000
    failures = []

    def draw_radii(kernel, dims, seed):
        # the sampler's draws of a random model, standardized by the density's path
        return model_radii(random_model(np.random.default_rng(seed), dims, kernel), n, sp.RandomStream(seed))

    radii = draw_radii(dn.Kernel.normal(), (2, 2), 1501)
    p = stats.kstest(radii, stats.chi(4).cdf).pvalue
    if p < 0.01:
        failures.append(f"chi radial p={p:.4f}")

    radii = draw_radii(dn.Kernel.normal(), (2,), 1502)
    p = stats.kstest(radii, stats.rayleigh.cdf).pvalue
    if p < 0.01:
        failures.append(f"rayleigh p={p:.4f}")

    radii = draw_radii(dn.Kernel.student_t(4.0), (1,), 1503)
    p = stats.kstest(radii, lambda r: 2 * stats.t.cdf(r, 4.0) - 1).pvalue
    if p < 0.01:
        failures.append(f"folded-t p={p:.4f}")

    gen = np.random.default_rng(1504)
    factors = [well_conditioned(gen, d) for d in (2, 2, 2)]
    mean = gen.standard_normal((2, 2, 2))
    model = dn.KroneckerModel(mean, factors, dn.Kernel.normal())
    rep = vf.check_covariance(model, 200_000, sp.RandomStream(1505))
    if not rep.passed:
        failures.append(f"covariance z={rep.statistic:.2f}")

    ok = not failures
    assert report(5, "radial KS laws (chi, Rayleigh, folded-t) and m=8 covariance recovery", ok,
                  "; ".join(failures) if failures else "all pass at alpha=0.01 / 5 SE")


def test_c6_least_squares():
    gen = np.random.default_rng(1006)
    failures = []

    worst = 0.0
    for _ in range(50):
        dims = random_shape(gen, max_order=3, max_dim=4, max_cells=64)
        maps = [well_conditioned(gen, m) for m in dims]
        x0 = gen.standard_normal(dims)
        xhat = ml.multilinear_lstsq(maps, ml.r_multiply(maps, x0))
        worst = max(worst, float(np.max(np.abs(xhat - x0))))
    if worst > 1e-9:
        failures.append(f"square recovery {worst:.2e}")

    worst_grad = 0.0
    for _ in range(10):
        order = int(gen.integers(1, 4))
        dims = tuple(int(d) for d in gen.integers(1, 4, size=order))
        qs = tuple(int(gen.integers(m, 5)) for m in dims)
        maps = [well_conditioned(gen, q, m) for q, m in zip(qs, dims)]
        y = gen.standard_normal(qs)
        xhat = ml.multilinear_lstsq(maps, y)
        step = 1e-6
        for idx in np.ndindex(xhat.shape):
            bump = np.zeros(xhat.shape)
            bump[idx] = step
            grad = (lstsq_residual(maps, y, xhat + bump)
                    - lstsq_residual(maps, y, xhat - bump)) / (2 * step)
            worst_grad = max(worst_grad, abs(grad))
    if worst_grad > 1e-5:
        failures.append(f"fd gradient {worst_grad:.2e}")

    maps = [well_conditioned(gen, 4, 2), well_conditioned(gen, 3, 2)]
    y = gen.standard_normal((4, 3))
    xhat = ml.multilinear_lstsq(maps, y)
    base = lstsq_residual(maps, y, xhat)
    wins = 0
    for _ in range(100):
        delta = gen.standard_normal(xhat.shape)
        scale = 1e-3 if wins % 2 == 0 else 1e-1
        step = delta * (scale / np.sqrt(sq_norm(delta)))
        if base <= lstsq_residual(maps, y, xhat + step):
            wins += 1
    if wins != 100:
        failures.append(f"perturbation optimality {wins}/100")

    ok = not failures
    assert report(6, "multilinear least squares: recovery, stationarity, optimality", ok,
                  "; ".join(failures) if failures else
                  f"recovery {worst:.1e}, gradient {worst_grad:.1e}, 100/100 perturbations")


def test_c7_t_density_sanity():
    model = dn.KroneckerModel(np.zeros(1), [np.eye(1)], dn.Kernel.student_t(4.0))
    grid = np.linspace(-6.0, 6.0, 101)
    worst = max(
        abs(dn.logpdf_elliptical(model, np.array([x])) - stats.t.logpdf(x, 4.0)) for x in grid
    )
    grid_ok = worst <= 1e-12

    gen = np.random.default_rng(1007)
    factors = [well_conditioned(gen, 2), well_conditioned(gen, 2)]
    mean = gen.standard_normal((2, 2))
    normal = dn.KroneckerModel(mean, factors, dn.Kernel.normal())
    big_v = with_kernel(normal, dn.Kernel.student_t(1e6))
    worst_limit = 0.0
    for _ in range(100):
        x = mean + gen.standard_normal((2, 2))
        worst_limit = max(worst_limit,
                          abs(dn.logpdf_elliptical(big_v, x) - dn.logpdf_elliptical(normal, x)))
    limit_ok = worst_limit <= 1e-3

    ok = grid_ok and limit_ok
    assert report(7, "t density: univariate grid to 1e-12, normal limit at df=1e6", ok,
                  f"grid dev {worst:.2e}, limit dev {worst_limit:.2e}")


def test_c8_cli_determinism_and_round_trip(tmp_path):
    f1, f2 = tmp_path / "a1.mat", tmp_path / "a2.mat"
    write_matrix(np.array([[1.0, 0.2], [0.0, 0.9]]), f1)
    write_matrix(np.array([[1.1, 0.0], [0.3, 1.0]]), f2)
    mean = tmp_path / "mean.arr"
    write_arrays([np.full((2, 2), 0.5)], mean)

    failures = []
    for extra in (("--kernel", "normal"), ("--kernel", "t", "--df", "4"), ("--kernel", "cauchy")):
        out1 = tmp_path / f"draws1-{extra[1]}.arr"
        out2 = tmp_path / f"draws2-{extra[1]}.arr"
        for out in (out1, out2):
            code = cli.main(["sample", *extra, "--factor", str(f1), "--factor", str(f2),
                             "--mean", str(mean), "--n", "25", "--seed", "11",
                             "--out", str(out)])
            if code != 0:
                failures.append(f"sample {extra[1]} exit {code}")
        if out1.read_bytes() != out2.read_bytes():
            failures.append(f"{extra[1]} output not byte-identical")
        dens = tmp_path / f"dens-{extra[1]}.txt"
        code = cli.main(["density", *extra, "--factor", str(f1), "--factor", str(f2),
                         "--mean", str(mean), "--input", str(out1), "--out", str(dens)])
        if code != 0:
            failures.append(f"density {extra[1]} exit {code}")
        else:
            values = [float(v) for v in dens.read_text().split()]
            if len(values) != 25 or not all(np.isfinite(values)):
                failures.append(f"{extra[1]} round trip gave {len(values)} finite values")

    ok = not failures
    assert report(8, "CLI byte determinism and sample->density round trip, all kernels", ok,
                  "; ".join(failures) if failures else "3 kernels x 25 draws")
