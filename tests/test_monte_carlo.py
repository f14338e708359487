import os
import signal

import numpy as np
import pytest
from scipy.linalg import block_diag

import quivergauge as qg
from quivergauge import forked, haar, metropolis, monte_carlo
from quivergauge.action import (
    ActionSpec,
    action_plan,
    expand_action,
    gauge_fixed_table,
    loop_trace,
)
from quivergauge.bratteli import gauge_tree
from quivergauge.monte_carlo import (
    KeyedSampler,
    check_loop_equation,
    estimate_wilson,
)
from quivergauge.quiver import EdgeWord, gauge_fixed_steps

from conftest import REPO, ginibre, lapack_haar, torus_quiver, triangle_network
from oracles import (
    action_sum,
    assemble_dirac,
    block_deviation,
    evaluate_action,
    metropolis_chains,
)

ZETA = EdgeWord.from_string("e1+ e2+ e3+")


def trace_terms(*words):
    """One-term polynomials: each word's normalised trace."""
    return [((1, w, None),) for w in words]


def one_block_sampler(n, seed):
    """Keyed sampler of a one-edge network whose edge carries one U(n) block;
    a self-loop, so that gauge fixing leaves it drawn."""
    q = qg.Quiver(["a"], [("u", "a", "a")])
    return KeyedSampler(triangle_network(q, n), seed)


def box_muller(pairs):
    """The Ginibre entries of uniform pairs (..., 2) as the sampler forms them:
    radius sqrt(-log1p(-u0)) times exp(2 pi i u1), the phase from w = tan(pi u1)
    as ((1 - w^2) + 2iw) / (1 + w^2)."""
    w = np.tan(np.pi * pairs[..., 1])
    r = np.sqrt(-np.log1p(-pairs[..., 0])) / (1 + w * w)
    z = np.empty(r.shape, complex)
    z.real, z.imag = r * (1 - w * w), r * (2 * w)
    # the polar form to rounding
    polar = np.sqrt(-np.log1p(-pairs[..., 0])) * np.exp(2j * np.pi * pairs[..., 1])
    assert np.abs(z - polar).max() <= 1e-15 * np.abs(polar).max()
    return z


def haar_traces(sampler, draws, left=None):
    """Tr U, or Tr(left U), over keyed draws 0..draws-1, in stacks of 10^4."""
    out = []
    for a in range(0, draws, 10_000):
        u = sampler.sample_chunk(a, min(a + 10_000, draws))["u"]
        out.append(np.trace(u if left is None else left @ u, axis1=-2, axis2=-1))
    return np.concatenate(out)


class TestHaarKernel:
    """The batched Gram-Schmidt Q against LAPACK's QR with the phase fix."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_lapack_and_is_unitary(self, n):
        z = ginibre(np.random.default_rng(n), (10_000, n, n))
        q = haar._haar_from_ginibre(z)
        assert np.abs(q - lapack_haar(z)).max() < 1e-12
        assert np.abs(q.conj().swapaxes(-1, -2) @ q - np.eye(n)).max() < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_matrix_bits_ignore_the_stack(self, n):
        # each matrix's Q is the same alone as in a stack of any size, so a
        # draw's bits cannot depend on the span that holds it
        rng = np.random.default_rng(100 + n)
        for size in (1, 7, 48, 1024):
            z = ginibre(rng, (size, n, n))
            alone = np.stack([haar._haar_from_ginibre(z[k : k + 1])[0] for k in range(size)])
            assert np.array_equal(haar._haar_from_ginibre(z), alone)

    @pytest.mark.parametrize(
        "column", [lambda z: z[..., 0] + 2j * z[..., 1], lambda z: 0 * z[..., 0]],
        ids=["dependent", "zero"],
    )
    def test_rank_deficient_matrix_is_refused(self, column):
        # one matrix of the stack has a column in the span of those before it
        z = ginibre(np.random.default_rng(5), (6, 4, 4))
        z[3, :, 2] = column(z[3])
        with pytest.raises(np.linalg.LinAlgError, match="column 2 depends on the columns before"):
            haar._haar_from_ginibre(z)


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
        # in pairs (u0, u1), are the polar Box-Muller Ginibre entries, and
        # each block sits r times on the diagonal; the tree edge e is 1
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
                copies = []
                for bi, (n, r) in enumerate(zip(net.n[tgt], net.r[tgt])):
                    span = -(-n * n // 2)
                    key = np.random.SeedSequence([seed, ei, bi]).generate_state(2, np.uint64)
                    bitgen = np.random.Philox(key=key, counter=[i * span, 0, 0, 0])
                    pairs = np.random.Generator(bitgen).random(4 * span)[: 2 * n * n]
                    pairs = pairs.reshape(n, n, 2)
                    copies += [haar._haar_from_ginibre(box_muller(pairs))] * r
                expected = block_diag(*copies)
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
        assert np.array_equal(chunk["e3"], haar._haar_from_ginibre(box_muller(pairs)))

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
    # chunks (16 at N=16: a partial last one) and every draw in one chunk,
    # each split over 1, 2 and 3 workers (more workers than chunks when the
    # draws fit in one or three chunks), give the same arrays
    job = qg.load_job(job_path)
    table = expand_action(job.quiver, job.action)
    eq = qg.generate_loop_equation(job.quiver, table, job.loops[0], root, mode="finite")
    steps = [w.steps for t in eq.lhs for w in t.words] + [t.word.steps for t in eq.rhs]
    words = list(dict.fromkeys(steps))
    assert () in words and any(o < 0 for w in words for _, o in w) == backward
    samples, dim = 40, job.network.dim
    runs, mask = [], os.sched_getaffinity(0)
    for budget in (1, 7 * dim**2, monte_carlo._CHUNK_ENTRIES, samples * dim**2):
        monkeypatch.setattr(monte_carlo, "_CHUNK_ENTRIES", budget)
        for workers in (1, 2, 3):
            monkeypatch.setattr(forked, "workers", lambda parts: workers)
            setup = monte_carlo._gauge_fixed(job.network, table, trace_terms(*words))
            runs.append(monte_carlo._reweighted_traces(job.network, setup, samples, 3))
            assert os.sched_getaffinity(0) == mask  # only the children are pinned
    for logs, traces in runs[1:]:
        assert np.array_equal(logs, runs[0][0]) and np.array_equal(traces, runs[0][1])
    assert np.all(runs[0][1][words.index(())] == 1.0)
    # a polynomial evaluated slice by slice in the workers is that row of the whole
    logs, traces = runs[0]
    poly = ((1, words[0], words[-1]), (-1, words[1], None))
    setup = monte_carlo._gauge_fixed(job.network, table, [poly])
    for budget in (1, 7 * dim**2):
        monkeypatch.setattr(monte_carlo, "_CHUNK_ENTRIES", budget)
        combined = monte_carlo._reweighted_traces(job.network, setup, samples, 3)
        assert np.array_equal(combined[0], logs)
        assert np.array_equal(combined[1], [traces[0] * traces[-1] - traces[1]])
    # and each draw on its own, through the 2-D action sum and loop_trace of
    # the gauge-fixed table and words
    sampler = KeyedSampler(job.network, 3)
    assert sampler.tree == (("e1", "e2") if job_path.startswith("builtin") else ("e",))
    fixed = gauge_fixed_table(table, sampler.tree)
    logs, traces = runs[0]
    for i in range(samples):
        u = sampler.sample(i).unitaries
        assert logs[i] == -dim * action_sum(action_plan(fixed), u, dim)
        for k, w in enumerate(words):
            t = loop_trace(u, gauge_fixed_steps(w, sampler.tree), dim)
            assert traces[k, i] == complex(t.real / dim, t.imag / dim)


def test_evaluate_divides_by_n_part_by_part(rng):
    # each trace is divided by N = 3 real and imaginary parts apart, which
    # trace / 3 is not for about half of these; a two-trace term is the
    # product of those quotients, and a 0-d trace fills every column
    raw = 3 * rng.standard_normal((2, 50)) + 3j * rng.standard_normal((2, 50))
    out = np.empty((3, 50), complex)
    monte_carlo._evaluate([[(1, 0, None)], [(1, 1, None)], [(1, 0, 1)]], raw, 3, out)
    parts = [[complex(t.real / 3, t.imag / 3) for t in tr] for tr in raw]
    assert out[:2].tolist() == parts
    assert out[2].tolist() == (np.array(parts[0]) * np.array(parts[1])).tolist()
    assert np.any(out[:2] != raw / 3)
    out = np.empty((2, 10), complex)
    monte_carlo._evaluate([[(1, 0, None)], [(2, 0, 0)]], [np.array(6 + 3j)], 3, out)
    assert np.all(out == [[2 + 1j], [2 * (2 + 1j) ** 2]])


def test_reweighting_draws_spans_of_trace_slices(monkeypatch):
    # on the two-site job a span of draws holds several trace slices, so
    # there are fewer sample_chunk calls than slices, and the arrays are
    # those of one chunk and one slice for all draws
    job = qg.load_job(str(REPO / "jobs" / "two_site.json"))
    table = expand_action(job.quiver, job.action)
    setup = monte_carlo._gauge_fixed(job.network, table, trace_terms(job.loops[0].steps, ()))
    samples, dim = 200, job.network.dim
    calls, sample_chunk = [], KeyedSampler.sample_chunk

    def counting(self, start, stop):
        calls.append((start, stop))
        return sample_chunk(self, start, stop)

    monkeypatch.setattr(KeyedSampler, "sample_chunk", counting)
    monkeypatch.setattr(forked, "workers", lambda parts: 1)  # every call made here
    logs, traces = monte_carlo._reweighted_traces(job.network, setup, samples, 3)
    slices = -(-samples // (monte_carlo._CHUNK_ENTRIES // dim**2))
    assert 0 < len(calls) < slices
    calls.clear()
    monkeypatch.setattr(monte_carlo, "_CHUNK_ENTRIES", samples * dim**2)
    one = monte_carlo._reweighted_traces(job.network, setup, samples, 3)
    assert calls == [(0, samples)]
    assert np.array_equal(logs, one[0]) and np.array_equal(traces, one[1])


@pytest.mark.parametrize(
    "workers, kill, raised, message",
    [
        (2, False, RuntimeError, "{1: 1}"),
        (2, True, RuntimeError, f"{{1: -{int(signal.SIGKILL)}}}"),
        (1, False, ValueError, "injected failure"),
    ],
    ids=["child_raises", "child_killed", "unforked_raises"],
)
def test_failing_worker_raises_and_leaves_no_process(
    monkeypatch, capfd, workers, kill, raised, message
):
    # span 1 fails: with 2 workers in the second forked child, whose error or
    # signal fails the call as its exit code or minus the signal, and every
    # child is reaped; with 1 worker in the caller, whose error propagates.
    # At N = 3 a trace slice is 4096 // 9 draws, and a span the most whole
    # slices whose one 3x3 off-tree block holds at most 4 * 4096 entries
    job = qg.triangle_job(dim=3)
    table = expand_action(job.quiver, job.action)
    size = monte_carlo._CHUNK_ENTRIES // 9
    chunk = size * (4 * monte_carlo._CHUNK_ENTRIES // (9 * size))
    caller, sample_chunk = os.getpid(), KeyedSampler.sample_chunk

    def failing(self, start, stop):
        if start == chunk:
            if kill and os.getpid() != caller:  # never the test's own process
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("injected failure")
        return sample_chunk(self, start, stop)

    monkeypatch.setattr(KeyedSampler, "sample_chunk", failing)
    monkeypatch.setattr(forked, "workers", lambda parts: workers)
    setup = monte_carlo._gauge_fixed(job.network, table, trace_terms(ZETA.steps))
    with pytest.raises(raised) as info:
        monte_carlo._reweighted_traces(job.network, setup, 3 * chunk, 3)
    assert message in str(info.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if raised is RuntimeError and not kill:  # the child's traceback is not lost
        assert "ValueError: injected failure" in capfd.readouterr().err


def test_failed_fork_reaps_started_children(monkeypatch):
    # the second fork fails in the caller: its error propagates once the
    # first child, already started, is reaped
    job = qg.triangle_job(dim=3)
    table = expand_action(job.quiver, job.action)
    fork, forks = os.fork, []

    def failing_fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError("injected fork failure")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(forked, "workers", lambda parts: 2)
    setup = monte_carlo._gauge_fixed(job.network, table, trace_terms(ZETA.steps))
    with pytest.raises(OSError, match="injected fork failure"):
        monte_carlo._reweighted_traces(job.network, setup, 1000, 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        assert est.stderr_re == pytest.approx(traces.real.std() / np.sqrt(n), rel=1e-12)
        assert est.stderr_im == pytest.approx(traces.imag.std() / np.sqrt(n), rel=1e-12)
        assert est.effective_samples == n

    def test_constant_loop_is_one(self, tri3):
        job, table = tri3
        est = estimate_wilson(job.network, table, EdgeWord(), samples=500, seed=3)
        assert est.mean == 1.0 and est.stderr == est.stderr_re == est.stderr_im == 0.0

    def test_matches_exact_curve(self, tri3):
        job, table = tri3
        est = estimate_wilson(job.network, table, ZETA, samples=30000, seed=11)
        y3 = qg.first_moment_curve(3, np.array([0.2])).y[0]
        assert abs(est.mean.real - y3) <= 4 * est.stderr

    def test_not_closed_rejected(self, tri3):
        job, table = tri3
        with pytest.raises(ValueError, match="not closed"):
            estimate_wilson(job.network, table, EdgeWord.from_string("e1+"), samples=10, seed=1)

    def test_unknown_method_rejected(self, tri3):
        job, table = tri3
        with pytest.raises(ValueError, match="unknown method 'hmc'"):
            estimate_wilson(job.network, table, ZETA, samples=10, seed=1, method="hmc")

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
        for est in (rew, met):
            assert est.stderr == pytest.approx(np.hypot(est.stderr_re, est.stderr_im), rel=1e-12)
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
    # a quiver with no cycle is all tree: no block moves, no proposal is made
    # and every closed word traces N, so every measurement is 1
    q = qg.Quiver(["a", "b"], [("u", "a", "b")])
    table = expand_action(q, ActionSpec.from_list([0, 0, 1]))
    est = estimate_wilson(triangle_network(q, 2), table, EdgeWord.from_string("u+ u-"),
                          samples=20, seed=1, method="metropolis", burnin=0, thin=1)
    assert (est.mean, est.stderr, est.effective_samples) == (1, 0, 20)
    assert est.acceptance == 1.0 and est.rhat is None
    # the 0-d traces of the all-tree words fill every chain's measurement of
    # every polynomial, not of one alone
    steps, net = EdgeWord.from_string("u+ u-").steps, triangle_network(q, 2)
    setup = monte_carlo._gauge_fixed(net, table, trace_terms(steps) + [((2, steps, steps),)])
    chains = metropolis._Chains(net, setup, 1)
    accepted, values = chains.run(4, 2)
    assert accepted == {} and values.shape == (2, metropolis._CHAINS, 2)
    assert np.all(values == [[[1]], [[2]]])


def test_metropolis_steps_tuned_to_their_cap_may_accept_every_proposal(monkeypatch):
    # at f3 = 10^-6 burn-in tunes every step up to its cap pi, where nearly
    # every proposal is accepted: the rate is the coupling's, not a tuning
    # fault, so the estimate stands, the same on any number of workers
    job = qg.triangle_job(dim=3, f3="1/1000000")
    table = expand_action(job.quiver, job.action)
    runs = []
    for workers in (1, 3):
        monkeypatch.setattr(forked, "workers", lambda parts: workers)
        runs.append(estimate_wilson(job.network, table, ZETA, samples=1000, seed=1,
                                    method="metropolis", burnin=2000, thin=5))
    est = runs[0]
    assert runs[1] == est and est.acceptance > 0.95 and est.rhat < 1.1
    y3 = qg.first_moment_curve(3, np.array([3e-6])).y[0]
    assert abs(est.mean.real - y3) <= 5 * est.stderr_re


def test_metropolis_refuses_a_high_rate_while_a_step_can_grow():
    # 500 burn-in sweeps leave steps below pi, so a rate above 95% is refused
    job = qg.triangle_job(dim=3, f3="1/1000000")
    table = expand_action(job.quiver, job.action)
    with pytest.raises(RuntimeError, match=r"acceptance rate 100.0% outside \[5%, 95%\]"):
        estimate_wilson(job.network, table, ZETA, samples=1000, seed=1, method="metropolis",
                        burnin=500, thin=5)


@pytest.mark.parametrize("check", [False, True], ids=["estimate", "check_eq"])
def test_overflowing_log_weights_are_refused(tri3, monkeypatch, check):
    # f3 = 10^307 puts 2 N^2 sum |g| beyond float range, where a log weight
    # or a spread of two could overflow, and 10^400 is beyond a float
    # itself: reweighting refuses them before any draw
    job, _ = tri3
    monkeypatch.setattr(monte_carlo, "_reweighted_traces", None)  # never reached
    for f3 in (10**307, 10**400):
        table = expand_action(job.quiver, ActionSpec.from_list([0, 0, 0, f3]))
        with pytest.raises(OverflowError, match="log weights -N S overflow float arithmetic"):
            if check:
                eq = qg.generate_loop_equation(job.quiver, table, ZETA, "e1", mode="finite")
                check_loop_equation(job.network, table, eq, samples=2000, seed=1)
            else:
                estimate_wilson(job.network, table, ZETA, samples=2000, seed=1)


def test_metropolis_refuses_an_overflowing_action(tri3, monkeypatch):
    # the same bound refuses both actions before any chain runs, where a
    # proposal's action difference would overflow, for an estimate and a check
    job, _ = tri3
    monkeypatch.setattr(metropolis, "_run_chains", None)  # never reached
    for f3 in (10**307, 10**400):
        table = expand_action(job.quiver, ActionSpec.from_list([0, 0, 0, f3]))
        eq = qg.generate_loop_equation(job.quiver, table, ZETA, "e1", mode="finite")
        with pytest.raises(OverflowError, match="log weights -N S overflow float arithmetic"):
            estimate_wilson(job.network, table, ZETA, samples=200, seed=1, method="metropolis",
                            burnin=200, thin=1)
        with pytest.raises(OverflowError, match="log weights -N S overflow float arithmetic"):
            check_loop_equation(job.network, table, eq, samples=200, seed=1,
                                method="metropolis", burnin=200, thin=1)


@pytest.mark.parametrize("method", ["reweight", "metropolis"])
@pytest.mark.parametrize("unforked", [True, False], ids=["one_worker", "default_workers"])
def test_one_set_up_per_call_and_none_in_a_worker(tri3, monkeypatch, method, unforked):
    # each estimator call gauge-fixes the action once, in the caller before
    # any fork; a call from a forked worker would be counted in shared memory.
    # 2000 draws are two reweighting spans at N = 3, so both methods fork
    # on more than one CPU
    job, table = tri3
    eq = qg.generate_loop_equation(job.quiver, table, ZETA, "e1", mode="finite")
    calls, fix = forked.shared_array((1,), np.int64), monte_carlo.gauge_fixed_table

    def once(table, tree):
        calls[0] += 1
        if calls[0] > 1:
            raise AssertionError("the action was gauge-fixed twice in one estimator call")
        return fix(table, tree)

    monkeypatch.setattr(monte_carlo, "gauge_fixed_table", once)
    if unforked:
        monkeypatch.setattr(forked, "workers", lambda parts: 1)
    kwargs = dict(samples=2000, seed=1, method=method, burnin=100, thin=1)
    for estimate in (
        lambda: estimate_wilson(job.network, table, ZETA, **kwargs),
        lambda: check_loop_equation(job.network, table, eq, **kwargs),
    ):
        calls[0] = 0
        assert estimate().method == method
        assert calls[0] == 1


def test_log_weights_wider_than_float_range():
    # at N = 4 and f3 = 10^300, 2 N^2 sum |g| = 1.92e302 is within float
    # range, but the log weights of 2000 draws spread by 1.2e302: beside
    # the one heaviest draw every other weighs 0, so it is all the effective
    # size there is
    job = qg.triangle_job(dim=4)
    table = expand_action(job.quiver, ActionSpec.from_list([0, 0, 0, 10**300]))
    with pytest.raises(RuntimeError, match="effective sample size 1.0 below"):
        estimate_wilson(job.network, table, ZETA, samples=2000, seed=1)


@pytest.mark.parametrize(
    "job_path, f4",
    [("builtin:triangle@3", None), (str(REPO / "jobs" / "two_site.json"), "1/2000")],
    ids=["triangle3", "two_site"],
)
def test_metropolis_matches_one_proposal_at_a_time(monkeypatch, job_path, f4):
    # proposals prepared one at a time, in batches of the default budget and
    # in one batch per run of sweeps, on 1, 2, 3 and 10 workers, give the
    # oracle's chains and estimate bit for bit; 250 burn-in sweeps end the
    # burn-in mid-window, after tuning at 100 and 200
    job = qg.load_job(job_path)
    action = job.action if f4 is None else ActionSpec.from_list([0, 0, 0, 0, f4])
    table = expand_action(job.quiver, action)
    setup = monte_carlo._gauge_fixed(job.network, table, trace_terms(job.loops[0].steps))
    args = (job.network, setup, 11, 250, 36, 3)

    def estimate():
        return estimate_wilson(job.network, table, job.loops[0], samples=120, seed=11,
                               method="metropolis", burnin=250, thin=3)

    oracle = []  # the one oracle run: the arguments estimate() passes, and the chains

    def one_at_a_time(*called):
        oracle.append((called, metropolis_chains(*called)))
        return oracle[-1][1]

    with monkeypatch.context() as m:
        m.setattr(metropolis, "_run_chains", one_at_a_time)
        expected = estimate()
    [(called, (values, accepted, made))] = oracle
    assert called[0] is args[0] and called[1:] == args[1:]
    assert 0 < accepted < made and np.all(values != 0)
    mask = os.sched_getaffinity(0)
    for budget in (1, metropolis._CHUNK_ENTRIES, 10**9):
        monkeypatch.setattr(metropolis, "_CHUNK_ENTRIES", budget)
        for workers in (1, 2, 3, 10):
            monkeypatch.setattr(forked, "workers", lambda parts: workers)
            got = metropolis._run_chains(*args)
            assert np.array_equal(got[0], values) and got[1:] == (accepted, made)
            assert os.sched_getaffinity(0) == mask  # only the children are pinned
        # estimate() is _run_chains and a deterministic reduction: once per budget
        assert estimate() == expected


@pytest.mark.parametrize(
    "job_path, root",
    [("builtin:triangle@3", "e1"), (str(REPO / "jobs" / "two_site.json"), "e")],
    ids=["triangle3", "two_site"],
)
def test_chains_do_not_depend_on_what_they_measure(monkeypatch, job_path, root):
    # a worker's chains measuring the loop beside its equation's polynomial
    # move and measure the loop as _run_chains' chains measuring it alone,
    # bit for bit, whatever the batch budget and the number of workers
    job = qg.load_job(job_path)
    table = expand_action(job.quiver, job.action)
    eq = qg.generate_loop_equation(job.quiver, table, job.loops[0], root, mode="finite")
    polys = [((1, job.loops[0].steps, None),), eq.polynomial(table)]
    setup = monte_carlo._gauge_fixed(job.network, table, polys)
    seed, burnin, sweeps, thin = 11, 150, 12, 3
    for budget in (1, metropolis._CHUNK_ENTRIES, 10**9):
        monkeypatch.setattr(metropolis, "_CHUNK_ENTRIES", budget)
        for workers in (1, 2, 3):
            monkeypatch.setattr(forked, "workers", lambda parts: workers)
            alone, accepted, _ = metropolis._run_chains(
                job.network, monte_carlo._gauge_fixed(job.network, table, polys[:1]), seed,
                burnin, sweeps, thin
            )
            beside, total = np.empty_like(alone), 0
            for part in range(workers):
                rows = slice(part, metropolis._CHAINS, workers)
                chains = metropolis._Chains(job.network, setup, seed, rows)
                chains.burn_in(burnin)
                moved, (beside[rows], residuals) = chains.run(sweeps, thin)
                total += sum(int(a.sum()) for a in moved.values())
                assert residuals.shape == beside[rows].shape
            assert alone.tobytes() == beside.tobytes() and accepted == total


@pytest.mark.parametrize(
    "kill, message",
    [(False, "{1: 1}"), (True, f"{{1: -{int(signal.SIGKILL)}}}")],
    ids=["worker_raises", "worker_killed"],
)
def test_failing_metropolis_worker_raises_and_leaves_no_process(monkeypatch, capfd, kill, message):
    # the chains of worker 1 fail in its forked child: the call raises once
    # both children are reaped, and the caller's affinity is untouched
    job = qg.triangle_job(dim=3)
    table = expand_action(job.quiver, job.action)
    caller, run = os.getpid(), metropolis._Chains.run

    def failing(self, sweeps, thin=0):
        if self.rows.start == 1 and os.getpid() != caller:  # never the test's own process
            if kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("injected failure")
        return run(self, sweeps, thin)

    monkeypatch.setattr(metropolis._Chains, "run", failing)
    monkeypatch.setattr(forked, "workers", lambda parts: 2)
    mask = os.sched_getaffinity(0)
    with pytest.raises(RuntimeError) as info:
        estimate_wilson(job.network, table, ZETA, samples=100, seed=3,
                        method="metropolis", burnin=100, thin=1)
    assert message in str(info.value)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == mask
    if not kill:  # the child's traceback is not lost
        assert "ValueError: injected failure" in capfd.readouterr().err


def chain_setup(net, table):
    """The set-up of chains that measure nothing."""
    return monte_carlo._gauge_fixed(net, table, [])


class TestChains:
    def test_rhat_of_iid_chains_is_one(self, rng):
        assert abs(metropolis._rhat(rng.standard_normal((10, 1000))) - 1) < 0.05

    def test_rhat_flags_chains_that_disagree(self, rng):
        shifted = rng.standard_normal((10, 1000)) + 4 * np.arange(10)[:, None]
        assert metropolis._rhat(shifted) > 1.5

    def test_rhat_is_undefined_without_spread(self, rng):
        assert metropolis._rhat(rng.standard_normal((10, 1))) is None
        assert metropolis._rhat(np.ones((10, 50))) is None

    def test_triangle_moves_only_the_off_tree_block(self, tri3):
        # a sweep keeps the network's 3 proposals, all on e3
        job, table = tri3
        chains = metropolis._Chains(job.network, chain_setup(job.network, table), seed=3)
        assert chains.sites == [("e3", 0)] and chains.sweep == [("e3", 0)] * 3
        assert set(chains.assignment) == {"e3"}
        assert chains.plan == ([(("e3", 1),)], [0.4])

    def test_tracked_action_matches_plaquette_sum(self):
        # accepted and rejected chains mixed by np.where keep S equal to the state's
        job = qg.load_job(str(REPO / "jobs" / "two_site.json"))
        table = expand_action(job.quiver, job.action)
        chains = metropolis._Chains(job.network, chain_setup(job.network, table), seed=3)
        for b in chains.sites:
            chains.eps[b][:] = 0.05  # small steps: some accepted, some rejected
        accepted = sum(int(a.sum()) for a in chains.run(10)[0].values())
        assert 0 < accepted < 10 * len(chains.sweep) * metropolis._CHAINS
        assert chains.plan == action_plan(gauge_fixed_table(table, ("e",)))
        assert (chains.s == action_sum(chains.plan, chains.assignment, job.network.dim)).all()

    def test_proposals_keep_every_chain_in_its_block_group(self):
        # a proposal writes its rotated block into each copy on the edge, so
        # ov stays U(3)x4 + U(2)x2 and ow stays U(8)x2 in every chain
        job = qg.load_job(str(REPO / "jobs" / "two_site.json"))
        table = expand_action(job.quiver, ActionSpec.from_list([0, 0, 0, 0, "1/2000"]))
        chains = metropolis._Chains(job.network, chain_setup(job.network, table), seed=3)
        accepted = sum(int(a.sum()) for a in chains.run(5)[0].values())
        assert accepted > 0
        eye = np.eye(job.network.dim)
        for e, stack in chains.assignment.items():
            for u in stack:
                assert block_deviation(job.network.blocks(e), u) == 0.0, e
                np.testing.assert_allclose(u @ u.conj().T, eye, atol=1e-12)

    def test_proposals_are_unitary_and_negated_angles_invert_them(self, rng):
        # R = V diag(exp(i eps theta)) V^-1 is unitary, and the same V with
        # -theta gives R^-1, so the walk proposes R and R^-1 alike
        job = qg.load_job(str(REPO / "jobs" / "two_site.json"))
        table = expand_action(job.quiver, job.action)
        chains = metropolis._Chains(job.network, chain_setup(job.network, table), seed=3)
        prepared = chains._prepare(2)
        assert list(prepared) == chains.sites
        for b, proposals in prepared.items():
            proposals = list(proposals)
            assert len(proposals) == 2 * chains.sweep.count(b)  # one per turn in two sweeps
            for r, u in proposals:
                eye = np.eye(r.shape[-1])
                assert np.abs(r @ r.conj().swapaxes(-1, -2) - eye).max() <= 1e-13
                assert u.shape == (metropolis._CHAINS,) and np.all((0 <= u) & (u < 1))
        for n in (3, 8):
            v = haar._haar_from_ginibre(haar._ginibre(rng.random((10, n, n, 2))))
            angles = 0.5 * np.sqrt(n) * rng.standard_normal((10, n))
            r = metropolis._rotation(v, angles)
            assert np.abs(r @ r.conj().swapaxes(-1, -2) - np.eye(n)).max() <= 1e-13
            assert np.abs(r @ metropolis._rotation(v, -angles) - np.eye(n)).max() <= 1e-13


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

    def test_structurally_empty_equation(self, monkeypatch, two_site_quiver, two_site_network):
        # a polynomial with no terms is 0 with nothing drawn, by either method
        monkeypatch.setattr(monte_carlo, "_reweighted_traces", None)  # never reached
        monkeypatch.setattr(metropolis, "_run_chains", None)  # never reached
        table = expand_action(two_site_quiver, ActionSpec.from_list([0, 0, 1]))
        beta = EdgeWord.from_string("ow+ ow+")
        eq = qg.generate_loop_equation(two_site_quiver, table, beta, "e", mode="finite")
        assert eq.polynomial(table) == ()
        for method in ("reweight", "metropolis"):
            res = check_loop_equation(two_site_network, table, eq, samples=200, seed=1,
                                      method=method)
            assert res.residual == 0.0 and res.stderr == 0.0
            assert (res.stderr_re, res.stderr_im) == (0.0, 0.0)
            assert (res.samples, res.effective_samples, res.method) == (0, 0.0, method)

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
