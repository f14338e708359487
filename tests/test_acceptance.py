"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line through the capture bypass so the
summary shows up on the terminal.  Monte Carlo criteria run through the CLI
and write their JSON records to a shared directory; the determinism
criterion reruns them and compares bytes.
"""

import json
import time

import numpy as np
import pytest
import scipy.integrate

import quivergauge as qg
from quivergauge.action import ActionSpec, expand_action
from quivergauge.cli import run
from quivergauge.laurent import YXPoly
from quivergauge.quiver import EdgeWord, reduced_closed_walk_counts

from conftest import triangle_network
from oracles import assemble_dirac, evaluate_action

ZETA = EdgeWord.from_string("e1+ e2+ e3+")


def report(capsys, num: int, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}", flush=True)
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def test_c01_moment_table_exact(capsys):
    t0 = time.perf_counter()
    expected = {
        1: {(1, 0): 1},
        2: {(1, 1): 1, (0, 0): 1},
        3: {(1, 0): 1, (2, 1): 1, (0, 1): 1, (1, 2): 1},
        4: {(1, 1): 4, (2, 2): 3, (0, 2): 1, (1, 3): 1, (0, 0): 1},
        5: {(1, 0): 1, (2, 1): 3, (3, 2): 2, (0, 1): 3, (1, 2): 9,
            (2, 3): 6, (0, 3): 1, (1, 4): 1},
        6: {(1, 1): 9, (2, 2): 18, (3, 3): 10, (0, 2): 6, (1, 3): 16,
            (2, 4): 10, (0, 4): 1, (1, 5): 1, (0, 0): 1},
    }
    ok = all(
        qg.moment(n) == YXPoly(tuple((a, b, c) for (a, b), c in sorted(terms.items())))
        for n, terms in expected.items()
    )
    dt = time.perf_counter() - t0
    report(capsys, 1, ok and dt < 1.0, f"moments m_1..m_6 exact, {dt * 1e3:.0f} ms")


def test_c02_loop_equation_symbolic_identity(capsys, triangle_quiver):
    t0 = time.perf_counter()
    table = expand_action(triangle_quiver, ActionSpec.from_list([0, 0, 0, "1/3"]))
    ok = True
    for n in range(1, 7):
        eq = qg.generate_loop_equation(triangle_quiver, table, ZETA**n, "e1", mode="large")
        meq = qg.factorize_large_N(eq)
        residual = meq.residual_polynomial(lambda k: qg.moment(abs(k)), lambda p: YXPoly.x())
        ok = ok and residual.is_zero
    dt = time.perf_counter() - t0
    report(capsys, 2, ok and dt < 1.0, f"factorised relations n=1..6 are the moment recursion, {dt * 1e3:.0f} ms")


def test_c03_quartic_expansion_coefficients(capsys, two_site_quiver):
    table = expand_action(two_site_quiver, ActionSpec.from_list([0, 0, 0, 0, 1]))

    def coup(text):
        return table.coupling(qg.cyclic_canonical(two_site_quiver, EdgeWord.from_string(text)))

    mixed_ok = all(
        coup(f"ov{sv} e+ ow{sw} e-") == 4 for sv in "+-" for sw in "+-"
    )
    # pure self-loop classes follow q(z) = z^4 + 4z^2 + 1: the z^4 class has
    # weight 1, and the square class collects 4 (from q's 4z^2) plus 4 more
    # quartic walks whose detours cancel
    quartic_ok = coup("ov+ ov+ ov+ ov+") == 1 and coup("ow+ ow+ ow+ ow+") == 1
    square_ok = coup("ov+ ov+") == 8 and coup("ow+ ow+") == 8
    ok = mixed_ok and quartic_ok and square_ok
    report(capsys, 3, ok, "quartic action: mixed plaquette 4, self-loop classes per z^4 + 4z^2 + 1")


def test_c04_spectral_action_oracle(capsys, two_site_quiver, two_site_network, triangle_quiver):
    t0 = time.perf_counter()
    f = ActionSpec.from_list(["1/2", "1/3", "1/5", "1/7", "1/11"])
    worst = 0.0
    cases = [
        (two_site_quiver, two_site_network),
        (triangle_quiver, triangle_network(triangle_quiver, 5)),
    ]
    for quiver, net in cases:
        table = expand_action(quiver, f)
        sampler = qg.KeyedSampler(net, 424242)
        for i in range(20):
            s = sampler.sample(i)
            ev = np.linalg.eigvalsh(assemble_dirac(net, s))
            direct = sum(float(c) * (ev**k).sum() for k, c in enumerate(f.coefficients))
            val = evaluate_action(table, s.unitaries)
            worst = max(worst, abs(val - direct) / abs(direct))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 10.0
    report(capsys, 4, ok, f"plaquette evaluation = eigenvalue trace, worst rel {worst:.1e}, {dt:.1f} s")


def test_c05_walk_count_oracle(capsys):
    rng = np.random.default_rng(7)
    checked = 0
    quivers = 0
    while quivers < 50:
        nv = int(rng.integers(1, 6))
        ne = int(rng.integers(1, 9))
        verts = [f"v{i}" for i in range(nv)]
        edges = [
            (f"e{j}", verts[int(rng.integers(nv))], verts[int(rng.integers(nv))])
            for j in range(ne)
        ]
        q = qg.Quiver(verts, edges)
        a = q.adjacency()
        powers = [np.linalg.matrix_power(a, k) for k in range(9)]
        # resample pathological draws whose walk counts would be huge
        if max(int(powers[8][i, i]) for i in range(nv)) > 20000:
            continue
        quivers += 1
        for v in verts:
            i = q.vertex_index(v)
            by_reduction = reduced_closed_walk_counts(q, v, 8)
            for k in range(9):
                got = len(qg.enumerate_closed_walks(q, v, k))
                assert got == int(powers[k][i, i]), (verts, edges, v, k)
                # the per-free-reduction counts the action expansion uses
                assert sum(by_reduction[k].values()) == got, (verts, edges, v, k)
                checked += 1
    report(capsys, 5, True, f"{quivers} random quivers, {checked} (vertex, length) counts match adjacency powers")


def test_c06_gww_sanity(capsys):
    t0 = time.perf_counter()
    z_ok = all(abs(qg.partition_function(n, 0.0) - 1.0) < 1e-12 for n in range(1, 9))
    quad_worst = 0.0
    for x in np.linspace(-2, 2, 17):
        val, _ = scipy.integrate.quad(
            lambda t: np.exp(-2 * x * np.cos(t)) / (2 * np.pi), 0, 2 * np.pi
        )
        quad_worst = max(quad_worst, abs(qg.partition_function(1, x) - val))
    odd_worst = 0.0
    xs = np.linspace(-3, 3, 601)
    for n in range(1, 7):
        curve = qg.first_moment_curve(n, xs)
        odd_worst = max(odd_worst, float(np.abs(curve.y + curve.y[::-1]).max()))
    dt = time.perf_counter() - t0
    ok = z_ok and quad_worst < 1e-8 and odd_worst < 1e-9 and dt < 5.0
    report(
        capsys,
        6,
        ok,
        f"Z_N(0)=1, quadrature dev {quad_worst:.1e}, oddness dev {odd_worst:.1e}, {dt:.1f} s",
    )


def test_c07_mc_matches_exact_moment(capsys, outdir):
    t0 = time.perf_counter()
    out = outdir / "c07_mc.json"
    code = run(
        ["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+",
         "--samples", "100000", "--seed", "20240901", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    y3 = float(qg.first_moment_curve(3, np.array([0.2])).y[0])
    dev = abs(data["mean_re"] - y3)
    dt = time.perf_counter() - t0
    # the real part against the error of the real part alone
    ok = dev <= 3 * data["stderr_re"] and dt < 180.0
    report(
        capsys,
        7,
        ok,
        f"reweighted estimate {data['mean_re']:+.5f} vs y_3(0.2) {y3:+.5f} "
        f"({dev / data['stderr_re']:.2f} sigma), {dt:.0f} s",
    )


@pytest.mark.parametrize("power, label", [(1, "zeta"), (2, "zeta^2")])
def test_c08_finite_n_residual(capsys, outdir, power, label):
    t0 = time.perf_counter()
    word = " ".join(["e1+ e2+ e3+"] * power)
    out = outdir / f"c08_{label.replace('^', '')}.json"
    code = run(
        ["mc", "builtin:triangle@4", "--loop", word, "--check-eq", "--root", "e1",
         "--samples", "100000", "--seed", "20240902", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    resid = complex(data["residual_re"], data["residual_im"])
    dt = time.perf_counter() - t0
    ok = abs(resid) <= 5 * data["stderr"] and dt < 300.0
    report(
        capsys,
        8,
        ok,
        f"loop-equation residual for {label}: {abs(resid):.2e} "
        f"({abs(resid) / data['stderr']:.2f} sigma), {dt:.0f} s",
    )


def test_c09_bootstrap_region_properties(capsys):
    t0 = time.perf_counter()
    from quivergauge.bootstrap import default_grid, scan_region

    xs, ys = default_grid()
    fmap = scan_region(xs, ys, 7, tol=1e-10)
    scan_dt = time.perf_counter() - t0
    stripe = np.abs(ys)[None, :] <= 1.0
    a_ok = bool(
        ((fmap.max_feasible >= 2) == np.broadcast_to(stripe, fmap.max_feasible.shape)).all()
    )
    counts = [fmap.feasible_cell_count(k) for k in range(2, 8)]
    b_ok = all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))
    curve = qg.first_moment_curve(5, np.linspace(-3, 3, 601))
    c_ok = True
    for x, z, y in zip(curve.x, curve.z, curve.y):
        if x == 0.0 or z <= 0.0:
            continue  # moments are singular at zero coupling
        feas, first = qg.feasible(float(x), float(y), 7, tol=1e-8)
        c_ok = c_ok and feas
    ok = a_ok and b_ok and c_ok and scan_dt < 30.0
    report(
        capsys,
        9,
        ok,
        f"stripe at order 2: {a_ok}; counts nonincreasing {counts}; "
        f"exact curve inside order-7 region: {c_ok}; scan {scan_dt:.1f} s",
    )


def test_c10_deterministic_reruns(capsys, outdir):
    reruns = [
        ("c07_mc.json",
         ["mc", "builtin:triangle@3", "--loop", "e1+ e2+ e3+",
          "--samples", "100000", "--seed", "20240901"]),
        ("c08_zeta.json",
         ["mc", "builtin:triangle@4", "--loop", "e1+ e2+ e3+", "--check-eq",
          "--root", "e1", "--samples", "100000", "--seed", "20240902"]),
        ("c08_zeta2.json",
         ["mc", "builtin:triangle@4", "--loop", "e1+ e2+ e3+ e1+ e2+ e3+",
          "--check-eq", "--root", "e1", "--samples", "100000", "--seed", "20240902"]),
    ]
    ok = True
    for fname, args in reruns:
        first = outdir / fname
        again = outdir / ("rerun_" + fname)
        assert first.exists(), f"criterion 7/8 output {fname} missing"
        assert run(args + ["--out", str(again)]) == 0
        ok = ok and first.read_bytes() == again.read_bytes()
    report(capsys, 10, ok, "criteria 7-8 reruns are byte-identical")
