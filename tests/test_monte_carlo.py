import numpy as np
import pytest

import quivergauge as qg
from quivergauge.action import ActionSpec, evaluate_action, expand_action, loop_trace
from quivergauge.monte_carlo import (
    KeyedSampler,
    assemble_dirac,
    check_loop_equation,
    estimate_wilson,
    sample_haar,
)
from quivergauge.quiver import EdgeWord

from conftest import triangle_network

ZETA = EdgeWord.from_string("e1+ e2+ e3+")


class TestSampleHaar:
    def test_unitarity(self, rng):
        for n in (1, 2, 5, 9):
            u = sample_haar(n, rng)
            assert np.abs(u @ u.conj().T - np.eye(n)).max() < 1e-12

    def test_mean_trace_vanishes(self, rng):
        # translation invariance forces E Tr U = 0
        n, draws = 3, 100000
        traces = np.array([np.trace(sample_haar(n, rng)) for _ in range(draws)])
        se = traces.std() / np.sqrt(draws)
        assert abs(traces.mean()) < 5 * se

    def test_trace_second_moment_is_one(self, rng):
        # E |Tr U|^2 = 1 for every n >= 1; for n = 1 this is the plain
        # circle integral (1/2pi) int |e^(i t)|^2 dt = 1
        for n in (1, 2, 4):
            draws = 100000
            t = np.array([np.trace(sample_haar(n, rng)) for _ in range(draws)])
            m = (np.abs(t) ** 2).mean()
            se = (np.abs(t) ** 2).std() / np.sqrt(draws)
            assert abs(m - 1.0) < 5 * max(se, 1e-12)

    def test_left_invariance_of_trace_distribution(self, rng):
        # fixed V: Tr(VU) is distributed like Tr(U); compare the first two
        # moments of the two sample streams
        n, draws = 3, 100000
        v = sample_haar(n, rng)
        a = np.array([np.trace(v @ sample_haar(n, rng)) for _ in range(draws)])
        b = np.array([np.trace(sample_haar(n, rng)) for _ in range(draws)])
        se = np.hypot(a.std() / np.sqrt(draws), b.std() / np.sqrt(draws))
        assert abs(a.mean() - b.mean()) < 5 * se
        se2 = np.hypot(
            (np.abs(a) ** 2).std() / np.sqrt(draws), (np.abs(b) ** 2).std() / np.sqrt(draws)
        )
        assert abs((np.abs(a) ** 2).mean() - (np.abs(b) ** 2).mean()) < 5 * se2


class TestSampleDirac:
    """Block layout of the configurations the keyed sampler draws."""

    def test_two_site_block_layout(self, two_site_network):
        s = KeyedSampler(two_site_network, 20240901).sample(0)
        u = s.unitaries["ov"]
        assert u.shape == (16, 16)
        # 4 copies of a 3-block then 2 copies of a 2-block on the diagonal
        assert np.abs(u[:3, :3] - u[3:6, 3:6]).max() < 1e-14
        assert np.abs(u[9:12, 9:12] - u[:3, :3]).max() < 1e-14
        assert np.abs(u[12:14, 12:14] - u[14:16, 14:16]).max() < 1e-14
        assert np.abs(u[:12, 12:]).max() == 0.0
        ue = s.unitaries["e"]
        assert np.abs(ue[:8, :8] - ue[8:, 8:]).max() < 1e-14

    def test_unitarity_of_embeddings(self, two_site_network):
        s = KeyedSampler(two_site_network, 20240901).sample(0)
        for u in s.unitaries.values():
            assert np.abs(u @ u.conj().T - np.eye(16)).max() < 1e-12

    def test_triangle_full_blocks(self, triangle_quiver):
        net = triangle_network(triangle_quiver, 4)
        s = KeyedSampler(net, 20240901).sample(0)
        assert set(s.unitaries) == {"e1", "e2", "e3"}
        for u in s.unitaries.values():
            assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


class TestAssembleDirac:
    def test_two_site_structure(self, two_site_network):
        s = KeyedSampler(two_site_network, 20240901).sample(0)
        d = assemble_dirac(two_site_network, s)
        assert d.shape == (32, 32)
        phi_v = s.unitaries["ov"] + s.unitaries["ov"].conj().T
        assert np.abs(d[:16, :16] - phi_v).max() < 1e-14
        assert np.abs(d[:16, 16:] - s.unitaries["e"]).max() < 1e-14

    def test_self_adjoint(self, two_site_network):
        s = KeyedSampler(two_site_network, 20240901).sample(0)
        d = assemble_dirac(two_site_network, s)
        assert np.abs(d - d.conj().T).max() < 1e-13

    def test_eigentrace_matches_plaquette_evaluation(self, two_site_quiver, two_site_network):
        f = ActionSpec.from_list([0, "1/2", 0, 0, "1/4"])
        table = expand_action(two_site_quiver, f)
        s = KeyedSampler(two_site_network, 20240901).sample(0)
        ev = np.linalg.eigvalsh(assemble_dirac(two_site_network, s))
        direct = sum(float(c) * (ev**k).sum() for k, c in enumerate(f.coefficients))
        assert evaluate_action(table, s.unitaries) == pytest.approx(direct, rel=1e-9)


class TestKeyedSampler:
    def test_deterministic(self, triangle_quiver):
        net = triangle_network(triangle_quiver, 3)
        a = KeyedSampler(net, 99).sample(7)
        b = KeyedSampler(net, 99).sample(7)
        for e in net.quiver.edge_ids:
            assert np.array_equal(a.unitaries[e], b.unitaries[e])

    def test_order_independent(self, triangle_quiver):
        # drawing sample 7 never depends on whether 0..6 were drawn
        net = triangle_network(triangle_quiver, 3)
        s1 = KeyedSampler(net, 5)
        for i in range(7):
            s1.sample(i)
        a = s1.sample(7)
        b = KeyedSampler(net, 5).sample(7)
        for e in net.quiver.edge_ids:
            assert np.array_equal(a.unitaries[e], b.unitaries[e])


@pytest.fixture(scope="module")
def tri3():
    job = qg.triangle_job(dim=3)  # coupling 3 * 1/15 = 0.2
    table = expand_action(job.quiver, job.action)
    return job, table


class TestEstimateWilson:
    def test_flat_weight_vanishing_loop(self, triangle_quiver):
        net = triangle_network(triangle_quiver, 3)
        table = expand_action(triangle_quiver, ActionSpec.from_list([0]))
        est = estimate_wilson(net, table, ZETA, samples=4000, seed=2)
        assert abs(est.mean) < 5 * est.stderr
        assert est.effective_samples == pytest.approx(4000)

    def test_flat_weight_two_site_loop(self, two_site_quiver, two_site_network):
        # mixed-block word on the N=16 ensemble: independence of the Haar
        # blocks forces the expectation to vanish
        table = expand_action(two_site_quiver, ActionSpec.from_list([0]))
        beta = EdgeWord.from_string("ov+ ov+ e+ ow+ ow+ e-")
        est = estimate_wilson(two_site_network, table, beta, samples=3000, seed=4)
        assert abs(est.mean) < 5 * est.stderr

    def test_flat_weight_reduction_is_the_plain_mean(self, triangle_quiver):
        # all weights 1: the ratio estimate is the sample mean, its error the
        # population std / sqrt(n) and the effective size n
        net = triangle_network(triangle_quiver, 3)
        table = expand_action(triangle_quiver, ActionSpec.from_list([0]))
        n = 1500
        est = estimate_wilson(net, table, ZETA, samples=n, seed=17)
        sampler = KeyedSampler(net, 17)
        traces = np.array(
            [loop_trace(sampler.sample(i).unitaries, ZETA.steps, 3) / 3 for i in range(n)]
        )
        assert est.mean == complex(traces.real.mean(), traces.imag.mean())
        assert est.stderr == pytest.approx(traces.std() / np.sqrt(n), rel=1e-12)
        assert est.effective_samples == n

    def test_constant_loop_is_one(self, tri3):
        job, table = tri3
        est = estimate_wilson(job.network, table, EdgeWord(), samples=500, seed=3)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_matches_exact_curve(self, tri3):
        job, table = tri3
        est = estimate_wilson(job.network, table, ZETA, samples=30000, seed=11)
        y3 = qg.first_moment_curve(3, np.array([0.2])).y[0]
        assert abs(est.mean.real - y3) <= 4 * est.stderr

    def test_not_closed_rejected(self, tri3):
        job, table = tri3
        with pytest.raises(ValueError, match="not closed"):
            estimate_wilson(job.network, table, EdgeWord.from_string("e1+"), samples=10, seed=1)

    def test_effective_size_guard(self, triangle_quiver):
        # strong coupling at tiny sample count exhausts the effective size
        net = triangle_network(triangle_quiver, 6)
        table = expand_action(triangle_quiver, ActionSpec.from_list([0, 0, 0, 2]))
        with pytest.raises(RuntimeError, match="effective sample size"):
            estimate_wilson(net, table, ZETA, samples=200, seed=1)

    def test_metropolis_agrees_with_reweight(self, tri3):
        job, table = tri3
        rew = estimate_wilson(job.network, table, ZETA, samples=30000, seed=11)
        met = estimate_wilson(
            job.network, table, ZETA, samples=1500, seed=5,
            method="metropolis", burnin=400, thin=5,
        )
        assert met.acceptance is not None and 0.05 <= met.acceptance <= 0.95
        combined = np.hypot(rew.stderr, met.stderr)
        assert abs(rew.mean.real - met.mean.real) <= 5 * combined

    def test_metropolis_effective_size_counts_correlation(self, tri3):
        # consecutive single sweeps are correlated, so the chain is worth
        # fewer independent draws than it has measurements
        job, table = tri3
        met = estimate_wilson(
            job.network, table, ZETA, samples=2000, seed=7,
            method="metropolis", burnin=400, thin=1,
        )
        assert 0 < met.effective_samples < 0.75 * met.samples


class TestCheckLoopEquation:
    @pytest.mark.parametrize("dim", [3, 4, 5])
    @pytest.mark.parametrize("power", [1, 2])
    def test_residual_within_5_sigma(self, dim, power):
        # the relation is exact at every finite N; only statistics remain
        job = qg.triangle_job(dim=dim)
        table = expand_action(job.quiver, job.action)
        eq = qg.generate_loop_equation(job.quiver, table, ZETA**power, "e1", mode="finite")
        res = check_loop_equation(job.network, table, eq, samples=20000, seed=7)
        assert abs(res.residual) <= 5 * res.stderr

    def test_structurally_empty_equation(self, two_site_quiver, two_site_network):
        table = expand_action(two_site_quiver, ActionSpec.from_list([0, 0, 1]))
        beta = EdgeWord.from_string("ow+ ow+")
        eq = qg.generate_loop_equation(two_site_quiver, table, beta, "e", mode="finite")
        res = check_loop_equation(two_site_network, table, eq, samples=200, seed=1)
        assert res.residual == 0.0 and res.stderr == 0.0

    def test_flat_measure_residual(self, triangle_quiver):
        # zero action: every nontrivial Wilson loop vanishes and so does the residual
        net = triangle_network(triangle_quiver, 3)
        table_flat = expand_action(triangle_quiver, ActionSpec.from_list([0]))
        eq = qg.generate_loop_equation(triangle_quiver, table_flat, ZETA, "e1", mode="finite")
        res = check_loop_equation(net, table_flat, eq, samples=4000, seed=9)
        assert abs(res.residual) <= 5 * max(res.stderr, 1e-12)

    def test_requires_finite_mode(self, triangle_quiver):
        job = qg.triangle_job(dim=3)
        table = expand_action(job.quiver, job.action)
        eq = qg.generate_loop_equation(job.quiver, table, ZETA, "e1", mode="large")
        with pytest.raises(ValueError, match="finite"):
            check_loop_equation(job.network, table, eq, samples=10, seed=1)
