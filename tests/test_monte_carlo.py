import numpy as np
import pytest

import quivergauge as qg
from quivergauge import monte_carlo
from quivergauge.action import (
    ActionSpec,
    action_plan,
    expand_action,
    gauge_fixed_table,
    loop_trace,
    plan_sum,
)
from quivergauge.bratteli import gauge_tree
from quivergauge.monte_carlo import (
    KeyedSampler,
    check_loop_equation,
    estimate_wilson,
)
from quivergauge.quiver import EdgeWord, gauge_fixed_steps

from conftest import REPO, torus_quiver, triangle_network
from oracles import assemble_dirac, evaluate_action

ZETA = EdgeWord.from_string("e1+ e2+ e3+")


def one_block_sampler(n, seed):
    """Keyed sampler of a one-edge network whose edge carries one U(n) block;
    a self-loop, so that gauge fixing leaves it drawn."""
    q = qg.Quiver(["a"], [("u", "a", "a")])
    return KeyedSampler(triangle_network(q, n), seed)


def haar_traces(sampler, draws, left=None):
    """Tr U, or Tr(left U), over keyed draws 0..draws-1, in stacks of 10^4."""
    out = []
    for a in range(0, draws, 10_000):
        u = sampler.sample_chunk(a, min(a + 10_000, draws))["u"]
        out.append(np.trace(u if left is None else left @ u, axis1=-2, axis2=-1))
    return np.concatenate(out)


class TestSampleHaar:
    """Haar properties of the stacked draws every estimate uses."""

    def test_unitarity(self):
        for n in (1, 2, 5, 9):
            u = one_block_sampler(n, 20240901).sample_chunk(0, 8)["u"]
            dev = u @ u.conj().swapaxes(-1, -2) - np.eye(n)
            assert np.abs(dev).max() < 1e-12

    def test_mean_trace_vanishes(self):
        # translation invariance forces E Tr U = 0
        n, draws = 3, 100000
        traces = haar_traces(one_block_sampler(n, 20240901), draws)
        se = traces.std() / np.sqrt(draws)
        assert abs(traces.mean()) < 5 * se

    def test_trace_second_moment_is_one(self):
        # E |Tr U|^2 = 1 for every n >= 1; for n = 1 this is the plain
        # circle integral (1/2pi) int |e^(i t)|^2 dt = 1
        for n in (1, 2, 4):
            draws = 100000
            t = haar_traces(one_block_sampler(n, 20240901), draws)
            m = (np.abs(t) ** 2).mean()
            se = (np.abs(t) ** 2).std() / np.sqrt(draws)
            assert abs(m - 1.0) < 5 * max(se, 1e-12)

    def test_u1_powers_vanish(self):
        # at n = 1, U = z/|z| = exp(2 pi i u1): E U^k = 0 for k != 0 checks
        # the phase half of the Box-Muller transform
        draws = 100000
        u = haar_traces(one_block_sampler(1, 20240901), draws)
        for k in (1, 2, 3):
            v = u**k
            assert abs(v.mean()) < 5 * v.std() / np.sqrt(draws)

    def test_trace_fourth_moment_is_two(self):
        # E |Tr U|^4 = 2 for every n >= 2 (the number of permutations of 2)
        for n in (2, 4):
            draws = 100000
            t4 = np.abs(haar_traces(one_block_sampler(n, 20240901), draws)) ** 4
            assert abs(t4.mean() - 2.0) < 5 * t4.std() / np.sqrt(draws)

    def test_left_invariance_of_trace_distribution(self):
        # fixed V: Tr(VU) is distributed like Tr(U); compare the first two
        # moments of two independently seeded streams, V drawn past the first
        n, draws = 3, 100000
        first = one_block_sampler(n, 20240901)
        v = first.sample_chunk(draws, draws + 1)["u"][0]
        a = haar_traces(first, draws, left=v)
        b = haar_traces(one_block_sampler(n, 20240902), draws)
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

    def test_chunk_stacks_the_single_draws(self, two_site_network):
        # blocks 3x4 + 2x2 and 8x2, from an index no chunk boundary aligns to
        chunk = KeyedSampler(two_site_network, 11).sample_chunk(5, 12)
        single = KeyedSampler(two_site_network, 11)
        for e in two_site_network.quiver.edge_ids:
            assert chunk[e].shape == (7, 16, 16)
            expected = np.stack([single.sample(i).unitaries[e] for i in range(5, 12)])
            assert np.array_equal(chunk[e], expected)

    def test_stream_layout(self, two_site_network):
        # draw i of an n x n block is Philox keyed by (seed, edge, block) from
        # counter (i*B, 0, 0, 0), B = ceil(n^2 / 2): its first 2n^2 uniforms,
        # in pairs (u0, u1), are the polar Box-Muller Ginibre entries; the
        # tree edge e is 1
        net, seed = two_site_network, 11
        sampler = KeyedSampler(net, seed)
        assert sampler.tree == ("e",)
        assert set(sampler._streams) == {("ov", 0), ("ov", 1), ("ow", 0)}
        for ei, e in enumerate(net.quiver.edge_ids):
            tgt = net.quiver.target[e]
            for i in (0, 5, 17):
                if e in sampler.tree:
                    assert np.array_equal(sampler.sample(i).unitaries[e], np.eye(16))
                    continue
                blocks = []
                for bi, n in enumerate(net.n[tgt]):
                    span = -(-n * n // 2)
                    key = np.random.SeedSequence([seed, ei, bi]).generate_state(2, np.uint64)
                    bitgen = np.random.Philox(key=key, counter=[i * span, 0, 0, 0])
                    pairs = np.random.Generator(bitgen).random(4 * span)[: 2 * n * n]
                    pairs = pairs.reshape(n, n, 2)
                    z = np.sqrt(-np.log1p(-pairs[..., 0])) * np.exp(2j * np.pi * pairs[..., 1])
                    blocks.append(monte_carlo._haar_from_ginibre(z))
                expected = monte_carlo._embed_blocks(blocks, net.blocks(e))
                assert np.array_equal(sampler.sample(i).unitaries[e], expected)

    def test_triangle_draws_only_off_tree_streams(self, triangle_quiver):
        # e1, e2 are the tree, drawn as 1; e3 keeps its stream keyed by edge
        # index 2, so it is the draw of a lone edge under that key
        net, seed = triangle_network(triangle_quiver, 4), 11
        sampler = KeyedSampler(net, seed)
        assert sampler.tree == ("e1", "e2")
        assert set(sampler._streams) == {("e3", 0)}
        chunk = sampler.sample_chunk(3, 9)
        for e in ("e1", "e2"):
            assert np.array_equal(chunk[e], np.broadcast_to(np.eye(4), (6, 4, 4)))
        key = np.random.SeedSequence([seed, 2, 0]).generate_state(2, np.uint64)
        bitgen = np.random.Philox(key=key, counter=[3 * 8, 0, 0, 0])
        pairs = np.random.Generator(bitgen).random((6, 32)).reshape(6, 4, 4, 2)
        z = np.sqrt(-np.log1p(-pairs[..., 0])) * np.exp(2j * np.pi * pairs[..., 1])
        assert np.array_equal(chunk["e3"], monte_carlo._haar_from_ginibre(z))

    @pytest.mark.parametrize("start, stop", [(5, 3), (-1, 0)])
    def test_chunk_range_checked(self, two_site_network, start, stop):
        with pytest.raises(ValueError, match=r"0 <= start <= stop"):
            KeyedSampler(two_site_network, 11).sample_chunk(start, stop)

    def test_empty_chunk(self, two_site_network):
        chunk = KeyedSampler(two_site_network, 11).sample_chunk(4, 4)
        assert {e: u.shape for e, u in chunk.items()} == dict.fromkeys(chunk, (0, 16, 16))


@pytest.mark.parametrize(
    "job_path, root, backward",
    [("builtin:triangle@3", "e1", False), (str(REPO / "jobs" / "two_site.json"), "e", True)],
    ids=["triangle3", "two_site"],
)
def test_reweighted_traces_ignore_chunking(monkeypatch, job_path, root, backward):
    # one draw per chunk, chunks of 7 (boundaries mid-stream), the default
    # chunks (16 at N=16: a partial last one) and every draw in one chunk
    # give the same arrays
    job = qg.load_job(job_path)
    table = expand_action(job.quiver, job.action)
    eq = qg.generate_loop_equation(job.quiver, table, job.loops[0], root, mode="finite")
    steps = [w.steps for t in eq.lhs for w in t.words] + [t.word.steps for t in eq.rhs]
    words = list(dict.fromkeys(steps))
    assert () in words and any(o < 0 for w in words for _, o in w) == backward
    samples, dim = 40, job.network.dim
    runs = []
    for budget in (1, 7 * dim**2, monte_carlo._CHUNK_ENTRIES, samples * dim**2):
        monkeypatch.setattr(monte_carlo, "_CHUNK_ENTRIES", budget)
        runs.append(monte_carlo._reweighted_traces(job.network, table, words, samples, 3))
    for logs, traces in runs[1:]:
        assert np.array_equal(logs, runs[0][0]) and np.array_equal(traces, runs[0][1])
    assert np.all(runs[0][1][words.index(())] == 1.0)
    # and each draw on its own, through the 2-D action sum and loop_trace of
    # the gauge-fixed table and words
    sampler = KeyedSampler(job.network, 3)
    assert sampler.tree == (("e1", "e2") if job_path.startswith("builtin") else ("e",))
    fixed = gauge_fixed_table(table, sampler.tree)
    logs, traces = runs[0]
    for i in range(samples):
        u = sampler.sample(i).unitaries
        assert logs[i] == -dim * plan_sum(action_plan(fixed), u, dim)
        for k, w in enumerate(words):
            t = loop_trace(u, gauge_fixed_steps(w, sampler.tree), dim)
            assert traces[k, i] == complex(t.real / dim, t.imag / dim)


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
        zeta = gauge_fixed_steps(ZETA.steps, sampler.tree)  # e3+: e1, e2 are gauge-fixed
        assert zeta == (("e3", 1),)
        traces = np.array([loop_trace(sampler.sample(i).unitaries, zeta, 3) / 3 for i in range(n)])
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
        assert met.rhat < 1.1

    def test_metropolis_effective_size_counts_correlation(self, tri3):
        # consecutive single sweeps are correlated, so the chain is worth
        # fewer independent draws than it has measurements
        job, table = tri3
        met = estimate_wilson(
            job.network, table, ZETA, samples=2000, seed=7,
            method="metropolis", burnin=400, thin=1,
        )
        assert 0 < met.effective_samples < 0.75 * met.samples

    def test_metropolis_uses_every_sample(self, tri3):
        # 1003 measurements do not split evenly over the chains
        job, table = tri3
        met = estimate_wilson(
            job.network, table, ZETA, samples=1003, seed=17,
            method="metropolis", burnin=200, thin=2,
        )
        assert met.samples == 1003
        y3 = qg.first_moment_curve(3, np.array([0.2])).y[0]
        assert abs(met.mean.real - y3) <= 5 * met.stderr


def test_metropolis_without_off_tree_blocks():
    # a quiver with no cycle is all tree: no block moves, and every closed
    # word traces N, as when every proposal is accepted
    q = qg.Quiver(["a", "b"], [("u", "a", "b")])
    table = expand_action(q, ActionSpec.from_list([0, 0, 1]))
    with pytest.raises(RuntimeError, match=r"acceptance rate 100\.0%"):
        estimate_wilson(triangle_network(q, 2), table, EdgeWord.from_string("u+ u-"),
                        samples=20, seed=1, method="metropolis", burnin=0, thin=1)


class TestChains:
    def test_rhat_of_iid_chains_is_one(self, rng):
        assert abs(monte_carlo._rhat(rng.standard_normal((10, 1000))) - 1) < 0.05

    def test_rhat_flags_chains_that_disagree(self, rng):
        shifted = rng.standard_normal((10, 1000)) + 4 * np.arange(10)[:, None]
        assert monte_carlo._rhat(shifted) > 1.5

    def test_rhat_is_undefined_without_spread(self, rng):
        assert monte_carlo._rhat(rng.standard_normal((10, 1))) is None
        assert monte_carlo._rhat(np.ones((10, 50))) is None

    def test_triangle_moves_only_the_off_tree_block(self, tri3):
        # a sweep keeps the network's 3 proposals, all on e3
        job, table = tri3
        chains = monte_carlo._Chains(job.network, table, seed=3)
        assert chains.sites == [("e3", 0)] and chains.sweep == [("e3", 0)] * 3
        assert set(chains.assignment) == {"e3"}
        assert chains.plan == ([(("e3", 1),)], [0.4])

    def test_tracked_action_matches_plaquette_sum(self):
        # accepted and rejected chains mixed by np.where keep S equal to the state's
        job = qg.load_job(str(REPO / "jobs" / "two_site.json"))
        table = expand_action(job.quiver, job.action)
        chains = monte_carlo._Chains(job.network, table, seed=3)
        for b in chains.sites:
            chains.eps[b][:] = 0.05  # small steps: some accepted, some rejected
        accepted = sum(int(chains.propose(*b).sum()) for _ in range(10) for b in chains.sites)
        assert 0 < accepted < 10 * len(chains.sites) * monte_carlo._CHAINS
        assert chains.plan == action_plan(gauge_fixed_table(table, ("e",)))
        assert (chains.s == plan_sum(chains.plan, chains.assignment, job.network.dim)).all()


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

    def test_two_independent_cycles(self):
        # two triangles sharing e3: the equation at root e3 ties the first
        # triangle to the 4-cycle e1 e2 e4 e5 and to a word around both
        q = qg.Quiver(
            ["a", "b", "c", "d"],
            [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a"),
             ("e4", "c", "d"), ("e5", "d", "a")],
        )
        net = triangle_network(q, 3)
        table = expand_action(q, ActionSpec.from_list([0, 0, 0, "1/15"]))
        eq = qg.generate_loop_equation(q, table, ZETA, "e3", mode="finite")
        rhs = {str(t.word) for t in eq.rhs}
        assert "e1+ e2+ e4+ e5+" in rhs and "e1+ e2+ e3+ e5- e4- e3+" in rhs
        # gauge-fixed, every traced word lies in the off-tree unitaries e3, e5
        tree = gauge_tree(net)
        assert tree == ("e1", "e2", "e4")
        words = [w.steps for t in eq.lhs for w in t.words] + [t.word.steps for t in eq.rhs]
        edges = {e for w in words for e, _ in gauge_fixed_steps(w, tree)}
        assert edges == {"e3", "e5"}
        res = check_loop_equation(net, table, eq, samples=20000, seed=7)
        assert abs(res.residual) <= 5 * res.stderr

    def test_torus_plaquette_at_a_tree_root(self):
        # 3x3 torus, 10 independent cycles; the root h00 is gauge-fixed to 1
        q = torus_quiver(3)
        net = triangle_network(q, 2)
        table = expand_action(q, ActionSpec.from_list([0, 0, 0, 0, "1/40"]))
        assert "h00" in gauge_tree(net)
        word = EdgeWord.from_string("h00+ u10+ h01- u00-")
        eq = qg.generate_loop_equation(q, table, word, "h00", mode="finite")
        res = check_loop_equation(net, table, eq, samples=20000, seed=7)
        assert abs(res.residual) <= 5 * res.stderr

    def test_two_site_at_root_e(self):
        # the tree fixes e, so every word is traced in ov and ow alone; at
        # f4 = 1/2000 the weights keep about 3,400 effective samples of 5,000
        job = qg.load_job(str(REPO / "jobs" / "two_site.json"))
        table = expand_action(job.quiver, ActionSpec.from_list([0, 0, 0, 0, "1/2000"]))
        eq = qg.generate_loop_equation(job.quiver, table, job.loops[0], "e", mode="finite")
        res = check_loop_equation(job.network, table, eq, samples=5000, seed=7)
        assert res.effective_samples > 1000
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
