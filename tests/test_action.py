from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quivergauge as qg
from quivergauge.action import (
    ActionSpec,
    PlaquetteTable,
    action_plan,
    expand_action,
    gauge_fixed_table,
    loop_trace,
    plan_sum,
    trace_words,
)
from quivergauge.bratteli import gauge_tree
from quivergauge.quiver import CyclicWord, gauge_fixed_steps

from conftest import (
    REPO,
    TWO_SITE_DATA,
    fork_network,
    layout_network,
    random_unitary,
    torus_quiver,
    triangle_network,
    two_vertex_data,
)
from oracles import assemble_dirac, block_deviation, evaluate_action, holonomy, tree_gauge


def cyc(q, text):
    return qg.cyclic_canonical(q, qg.EdgeWord.from_string(text))


class TestExpandTriangle:
    def test_cubic_plaquettes(self, triangle_quiver):
        f = ActionSpec.from_list(["1/2", "1/3", "1/5", "1/7"])
        table = expand_action(triangle_quiver, f)
        zeta = cyc(triangle_quiver, "e1+ e2+ e3+")
        assert table.coupling(zeta) == 3 * Fraction(1, 7)
        assert table.coupling(zeta.reverse()) == 3 * Fraction(1, 7)
        assert set(table.entries) == {zeta, zeta.reverse()}
        # every vertex contributes f0*N, and each vertex has two
        # back-and-forth length-2 walks collapsing to the constant
        assert table.constant_coeff == 3 * Fraction(1, 2) + 6 * Fraction(1, 5)

    def test_no_length_one_contributions(self, triangle_quiver):
        table = expand_action(triangle_quiver, ActionSpec.from_list([0, 1]))
        assert table.entries == {}
        assert table.constant_coeff == 0

    def test_degree_zero(self, triangle_quiver):
        table = expand_action(triangle_quiver, ActionSpec.from_list([7]))
        assert table.entries == {}
        assert table.constant_coeff == 21


@pytest.fixture(scope="module")
def quartic_table(two_site_quiver):
    return expand_action(two_site_quiver, ActionSpec.from_list([0, 0, 0, 0, 1]))


class TestExpandTwoSite:
    def test_mixed_plaquette_coefficient(self, two_site_quiver, quartic_table):
        for signs in ("+ +", "+ -", "- +", "- -"):
            sv, sw = signs.split()
            w = cyc(two_site_quiver, f"ov{sv} e+ ow{sw} e-")
            assert quartic_table.coupling(w) == 4

    def test_self_loop_quartic(self, two_site_quiver, quartic_table):
        assert quartic_table.coupling(cyc(two_site_quiver, "ov+ ov+ ov+ ov+")) == 1
        assert quartic_table.coupling(cyc(two_site_quiver, "ow+ ow+ ow+ ow+")) == 1

    def test_self_loop_square_regrouping(self, two_site_quiver, quartic_table):
        # the quartic walks that stray and cancel add 4 on top of the 4 from
        # the square term of q(z) = z^4 + 4 z^2 + 1
        assert quartic_table.coupling(cyc(two_site_quiver, "ov+ ov+")) == 8
        assert quartic_table.coupling(cyc(two_site_quiver, "ow+ ow+")) == 8

    def test_matches_square_polynomial_regrouping(self, two_site_quiver, quartic_table):
        # independent oracle: expand q(phi_v) + q(phi_w) + 4 phi_v U phi_w U*
        # by brute-force sign expansion, with phi = U + U*
        from collections import Counter
        from itertools import product

        expected: Counter = Counter()
        const = 0
        for o in ("ov", "ow"):
            # Tr phi^4 and 4 Tr phi^2: signed self-loop words
            for power, weight in ((4, 1), (2, 4)):
                for signs in product((1, -1), repeat=power):
                    w = qg.EdgeWord(tuple((o, s) for s in signs))
                    c = qg.cyclic_canonical(two_site_quiver, w)
                    if c.is_empty:
                        const += weight
                    else:
                        expected[c] += weight
            const += 1  # the constant term of q
        for sv, sw in product((1, -1), repeat=2):
            w = qg.EdgeWord((("ov", sv), ("e", 1), ("ow", sw), ("e", -1)))
            expected[qg.cyclic_canonical(two_site_quiver, w)] += 4
        assert dict(expected) == {w: int(g) for w, g in quartic_table.entries.items()}
        assert quartic_table.constant_coeff == const


class TestTableProperties:
    def test_linearity_in_coefficients(self, triangle_quiver):
        f3 = ActionSpec.from_list([0, 0, 0, "1/7"])
        f4 = ActionSpec.from_list([0, 0, 0, 0, "2/3"])
        both = ActionSpec.from_list([0, 0, 0, "1/7", "2/3"])
        t3 = expand_action(triangle_quiver, f3)
        t4 = expand_action(triangle_quiver, f4)
        tb = expand_action(triangle_quiver, both)
        merged = dict(t3.entries)
        for w, g in t4.entries.items():
            merged[w] = merged.get(w, Fraction(0)) + g
        assert {w: g for w, g in merged.items() if g} == tb.entries
        assert tb.constant_coeff == t3.constant_coeff + t4.constant_coeff

    def test_relabeling_invariance(self):
        f = ActionSpec.from_list([0, 0, 0, 1])
        q1 = qg.Quiver(
            ["v1", "v2", "v3"],
            [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")],
        )
        q2 = qg.Quiver(
            ["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")]
        )
        t1 = expand_action(q1, f)
        t2 = expand_action(q2, f)
        rename = {"e1": "x", "e2": "y", "e3": "z"}
        mapped = {
            qg.cyclic_canonical(
                q2, qg.EdgeWord(tuple((rename[e], o) for e, o in w.steps))
            ): g
            for w, g in t1.entries.items()
        }
        assert mapped == t2.entries


def walk_by_walk_expansion(q, f):
    """Reference expansion: every closed walk listed depth first and
    canonicalised on its own, lengths outer and base vertices inner."""
    entries, const = {}, f[0] * len(q.vertices)
    for k in range(1, f.degree + 1):
        if f[k] == 0:
            continue
        for v in q.vertices:
            for walk in qg.enumerate_closed_walks(q, v, k):
                cls = qg.cyclic_canonical(q, walk)
                if cls.is_empty:
                    const += f[k]
                else:
                    entries[cls] = entries.get(cls, Fraction(0)) + f[k]
    return [(w, g) for w, g in entries.items() if g != 0], const


def assert_matches_walk_by_walk(q, f):
    table = expand_action(q, f)
    entries, const = walk_by_walk_expansion(q, f)
    # order included: Monte Carlo float sums and loop equations follow it
    assert list(table.entries.items()) == entries
    assert table.constant_coeff == const


MAX_ORACLE_WALKS = 3000
SELF_LOOP = qg.Quiver(["a"], [("s", "a", "a")])


@st.composite
def quivers_and_actions(draw):
    """Small connected quivers with self-loops and multi-edges, and rational
    f with zeros and negative values, of a degree the reference can list."""
    nv = draw(st.integers(1, 4))
    verts = [f"v{i}" for i in range(nv)]
    pairs = [(i, draw(st.integers(0, i - 1))) for i in range(1, nv)]  # spanning tree
    pairs += draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=3))
    edges = []
    for j, (a, b) in enumerate(pairs):
        src, dst = (a, b) if draw(st.booleans()) else (b, a)
        edges.append((f"e{j}", verts[src], verts[dst]))
    q = qg.Quiver(verts, edges)
    a = q.adjacency()
    walks, power, max_degree = 0, np.eye(nv, dtype=np.int64), 0
    while max_degree < 8:
        power = power @ a
        walks += int(np.trace(power))
        if walks > MAX_ORACLE_WALKS:
            break
        max_degree += 1
    degree = draw(st.integers(0, max_degree))
    coeff = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=6))
    f = ActionSpec.from_list(draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1)))
    if f.degree >= 2:
        # cancel one class exactly, so that the g != 0 filter drops it
        lower = dict(walk_by_walk_expansion(q, ActionSpec(f.coefficients[:-1]))[0])
        top = walk_by_walk_expansion(q, ActionSpec.from_list([0] * f.degree + [1]))[0]
        shared = [(w, n) for w, n in top if w in lower]
        if shared:
            w, n = draw(st.sampled_from(shared))
            f = ActionSpec(f.coefficients[:-1] + (-lower[w] / n,))
    return q, f


class TestWalkByWalkOracle:
    """Counting walks per free reduction gives the walk-by-walk table, in order."""

    @pytest.mark.parametrize("path", sorted((REPO / "jobs").glob("*.json")), ids=lambda p: p.stem)
    def test_jobs(self, path):
        job = qg.load_job(str(path))
        assert_matches_walk_by_walk(job.quiver, job.action)

    def test_two_site_degree_10(self, two_site_quiver):
        assert_matches_walk_by_walk(two_site_quiver, ActionSpec.from_list([0] * 10 + [1]))

    def test_torus_degree_6(self):
        assert_matches_walk_by_walk(torus_quiver(3), ActionSpec.from_list([0] * 6 + [1]))

    @given(quivers_and_actions())
    @example((SELF_LOOP, ActionSpec.from_list([0, 0, 4, 0, -1])))  # square classes cancel
    @settings(max_examples=60, deadline=None)
    def test_random_quivers(self, case):
        assert_matches_walk_by_walk(*case)


class TestEvaluateAction:
    def test_identity_assignment(self, triangle_quiver):
        f = ActionSpec.from_list([0, 0, 0, "1/3"])
        table = expand_action(triangle_quiver, f)
        n = 4
        ident = {e: np.eye(n, dtype=complex) for e in triangle_quiver.edge_ids}
        expected = float(table.constant_coeff) * n + sum(
            float(g) * n for g in table.entries.values()
        )
        assert evaluate_action(table, ident) == pytest.approx(expected, abs=1e-12)

    def test_matches_dirac_eigentrace(self, triangle_quiver):
        f = ActionSpec.from_list([0, 0, 0, 1])
        table = expand_action(triangle_quiver, f)
        net = triangle_network(triangle_quiver, 4)
        s = qg.KeyedSampler(net, 20240901).sample(0)
        d = assemble_dirac(net, s)
        direct = float((np.linalg.eigvalsh(d) ** 3).sum())
        val = evaluate_action(table, s.unitaries)
        assert val == pytest.approx(direct, rel=1e-10)

    def test_imaginary_part_vanishes(self, triangle_quiver, rng):
        f = ActionSpec.from_list([0, "1/2", "1/3", "1/5"])
        table = expand_action(triangle_quiver, f)
        us = {e: random_unitary(rng, 5) for e in triangle_quiver.edge_ids}
        total = sum(
            complex(g) * loop_trace(us, w.steps, 5) for w, g in table.entries.items()
        )
        assert abs(total.imag) < 1e-12

    def test_non_unitary_rejected(self, triangle_quiver):
        table = expand_action(triangle_quiver, ActionSpec.from_list([0, 0, 0, 1]))
        bad = {e: np.eye(3, dtype=complex) for e in triangle_quiver.edge_ids}
        bad["e1"] = 2.0 * bad["e1"]
        with pytest.raises(ValueError, match="not unitary"):
            evaluate_action(table, bad)

    def test_missing_edge_rejected(self, triangle_quiver):
        table = expand_action(triangle_quiver, ActionSpec.from_list([0, 0, 0, 1]))
        with pytest.raises(ValueError, match="missing edges"):
            evaluate_action(table, {"e1": np.eye(3, dtype=complex)})


class TestBatchedTraces:
    def test_stack_matches_per_matrix(self, two_site_quiver, quartic_table, rng):
        # a leading sample axis gives, row by row, the 2-D result bit for bit:
        # self-loops, backward steps and the empty word included
        m, n = 5, 4
        stack = {
            e: np.stack([random_unitary(rng, n) for _ in range(m)])
            for e in two_site_quiver.edge_ids
        }
        rows = [{e: u[i] for e, u in stack.items()} for i in range(m)]
        words = [w.steps for w in quartic_table.entries] + [
            (), qg.EdgeWord.from_string("ov- e+ ow- ow- e-").steps
        ]
        for steps in words:
            got = loop_trace(stack, steps, n)
            assert got.shape == (m,)
            assert all(got[i] == loop_trace(r, steps, n) for i, r in enumerate(rows))
        got = plan_sum(action_plan(quartic_table), stack, n)
        assert all(got[i] == plan_sum(action_plan(quartic_table), r, n) for i, r in enumerate(rows))
        # one call over every word: each stacked row is its 2-D call
        got = trace_words(stack, words, n)
        for i, r in enumerate(rows):
            assert all(t[i] == t2 for t, t2 in zip(got, trace_words(r, words, n)))


@st.composite
def quivers_and_words(draw):
    """A quiver from ``quivers_and_actions`` and some of its closed walks of
    length 1 to 4, backward steps and unreduced walks included."""
    q, _ = draw(quivers_and_actions())
    closed = [
        w.steps for v in q.vertices for k in range(1, 5) for w in qg.enumerate_closed_walks(q, v, k)
    ]
    return q, draw(st.lists(st.sampled_from(closed), max_size=8)) if closed else []


class TestTraceWords:
    @given(quivers_and_words())
    @example((SELF_LOOP, [(("s", 1),), (("s", -1), ("s", 1), ("s", -1))]))
    @settings(max_examples=60, deadline=None)
    def test_random_words(self, case):
        # duplicates, the empty word and words that are prefixes of others
        q, picked = case
        words = picked + [w + w for w in picked] + picked[:1] + [()]
        n = 3
        rng = np.random.default_rng(len(words))
        us = {e: random_unitary(rng, n) for e in q.edge_ids}
        got = trace_words(us, words, n)
        assert len(got) == len(words)
        for w, t in zip(words, got):
            assert abs(t - np.trace(holonomy(us, w, n))) <= 1e-12 * n
            # a word's trace never depends on the other words in the call
            assert t == trace_words(us, [w], n)[0]


def entry_by_entry(table, us, n):
    return sum(float(g) * np.trace(holonomy(us, w.steps, n)).real for w, g in table.entries.items())


class TestReversePairing:
    """Re Tr hol(w^-1) = Re Tr hol(w): a class and its equal-coupling reverse
    are traced once, with twice the coupling."""

    @pytest.mark.parametrize(
        "quiver, f",
        [("triangle_quiver", ["1/2", "1/3", "1/5", "1/7"]), ("two_site_quiver", [0, 0, 0, 0, 1]),
         ("two_site_quiver", [0] * 10 + [1]), ("torus", [0] * 6 + [1])],
        ids=["triangle", "two_site_4", "two_site_10", "torus_6"],
    )
    def test_half_the_table_same_sum(self, quiver, f, request, rng):
        q = torus_quiver(3) if quiver == "torus" else request.getfixturevalue(quiver)
        table = expand_action(q, ActionSpec.from_list(f))
        words, weights = action_plan(table)
        assert 2 * len(words) == len(table.entries)
        coupling = {w.steps: g for w, g in table.entries.items()}
        assert weights == [float(2 * coupling[w]) for w in words]
        n = 3
        us = {e: random_unitary(rng, n) for e in q.edge_ids}
        bound = 1e-12 * sum(abs(float(g)) for g in table.entries.values()) * n
        assert abs(plan_sum(action_plan(table), us, n) - entry_by_entry(table, us, n)) <= bound

    def test_unpaired_classes_traced_alone(self, triangle_quiver, two_site_quiver, rng):
        # a class without its reverse, and a pair whose couplings differ
        zeta = cyc(triangle_quiver, "e1+ e2+ e3+")
        mixed = cyc(two_site_quiver, "ov+ e+ ow+ e-")
        square = cyc(two_site_quiver, "ov+ ov+")
        for table, q in (
            (PlaquetteTable({zeta: Fraction(3)}), triangle_quiver),
            (PlaquetteTable({zeta: Fraction(1, 2), zeta.reverse(): Fraction(-2)}), triangle_quiver),
            (PlaquetteTable({mixed: Fraction(1), square: Fraction(2)}), two_site_quiver),
        ):
            words, weights = action_plan(table)
            assert words == [w.steps for w in table.entries]
            assert weights == [float(g) for g in table.entries.values()]
            us = {e: random_unitary(rng, 4) for e in q.edge_ids}
            expected = entry_by_entry(table, us, 4)
            assert plan_sum(action_plan(table), us, 4) == pytest.approx(expected, abs=1e-12)


def assert_gauge_invariant(net, table, words, rng):
    """Tree edges become 1 and every other edge stays in its block ensemble;
    every class, every word and the action trace the same on the full
    configuration and, rewritten, on the gauge-fixed one."""
    n = net.dim
    tree = gauge_tree(net)
    us, fixed_us = tree_gauge(net, tree, rng)
    for e in net.quiver.edge_ids:
        if e in tree:
            assert np.abs(fixed_us[e] - np.eye(n)).max() <= 1e-12
        else:
            assert block_deviation(net.blocks(e), fixed_us[e]) <= 1e-12
    for steps in [w.steps for w in table.entries] + list(words):
        rewritten = gauge_fixed_steps(steps, tree)
        assert not {e for e, _ in rewritten} & set(tree)
        full = np.trace(holonomy(us, steps, n))
        assert abs(full - np.trace(holonomy(fixed_us, rewritten, n))) <= 1e-12 * n
    fixed = gauge_fixed_table(table, tree)
    assert not {e for w in fixed.entries for e, _ in w.steps} & set(tree)
    action = float(table.constant_coeff) * n + plan_sum(action_plan(table), us, n)
    fixed_action = float(fixed.constant_coeff) * n + plan_sum(action_plan(fixed), fixed_us, n)
    bound = 1e-12 * (1 + sum(abs(float(g)) for g in table.entries.values())) * n
    assert abs(action - fixed_action) <= bound


def some_closed_words(q, length, stride):
    """Every ``stride``-th closed walk of each length up to ``length``, at
    each vertex: backward steps and unreduced walks included."""
    return [
        w.steps for v in q.vertices for k in range(1, length + 1)
        for w in qg.enumerate_closed_walks(q, v, k)[::stride]
    ]


@st.composite
def two_vertex_networks(draw):
    """A network from ``two_vertex_data`` with small blocks, a self-loop at
    each vertex, the reverse edge b -> a (C^T) when C is a permutation, and
    either vertex declared first."""
    permutation = draw(st.booleans())
    data = draw(two_vertex_data(max_entry=2, max_size=2, permutation=permutation))
    c, ls = data["C"]["e"], data["l"]
    for v in "ab":
        data["C"]["s" + v] = [[int(i == j) for j in range(ls[v])] for i in range(ls[v])]
    edges = [("e", "a", "b"), ("sa", "a", "a"), ("sb", "b", "b")]
    if permutation:
        data["C"]["f"] = [list(col) for col in zip(*c)]
        edges.append(("f", "b", "a"))
    q = qg.Quiver(draw(st.permutations(["a", "b"])), edges)
    return qg.validate_network(q, data)


class TestGaugeFixing:
    """Maximal-tree gauge: closed-word traces are unchanged configuration by
    configuration, so the rewritten words in the off-tree edges replace them."""

    def test_triangle(self, triangle_quiver, rng):
        table = expand_action(triangle_quiver, ActionSpec.from_list(["1/2", "1/3", "1/5", "1/7"]))
        zeta = qg.EdgeWord.from_string("e1+ e2+ e3+")
        words = [(zeta**k).steps for k in (-2, -1, 1, 3)] + [
            qg.EdgeWord.from_string("e1+ e2+ e3+ e1+ e1- e3- e2- e1-").steps, ()
        ]
        for n in (1, 3, 4):
            assert_gauge_invariant(triangle_network(triangle_quiver, n), table, words, rng)

    def test_triangle_table(self, triangle_quiver):
        # e1 e2 e3 and its reverse become e3+ and e3-, one plan word at 2g
        table = expand_action(triangle_quiver, ActionSpec.from_list([0, 0, 0, "1/15"]))
        fixed = gauge_fixed_table(table, ("e1", "e2"))
        e3 = CyclicWord((("e3", 1),))
        assert fixed.entries == {e3: Fraction(1, 5), e3.reverse(): Fraction(1, 5)}
        assert fixed.constant_coeff == table.constant_coeff
        assert action_plan(fixed) == ([(("e3", 1),)], [0.4])

    def test_empty_tree_is_the_identity(self, two_site_quiver):
        table = expand_action(two_site_quiver, ActionSpec.from_list([0] * 6 + [1]))
        fixed = gauge_fixed_table(table, ())
        assert list(fixed.entries.items()) == list(table.entries.items())
        assert fixed.constant_coeff == table.constant_coeff

    def test_classes_merge_and_empty(self, triangle_quiver):
        # tables that are not expansions: e1 e3 and e2 e3 coincide as e3, and a
        # class in tree edges alone traces N
        zeta = cyc(triangle_quiver, "e1+ e2+ e3+")
        raw = PlaquetteTable(
            {CyclicWord((("e1", 1), ("e3", 1))): Fraction(1), zeta: Fraction(2),
             CyclicWord((("e2", 1), ("e3", 1))): Fraction(3),
             CyclicWord((("e1", 1), ("e2", 1))): Fraction(5)},
            constant_coeff=Fraction(7),
        )
        fixed = gauge_fixed_table(raw, ("e1", "e2"))
        assert fixed.entries == {CyclicWord((("e3", 1),)): Fraction(6)}  # at e1 e3's place
        assert fixed.constant_coeff == 12

    def test_torus(self, rng):
        q = torus_quiver(3)
        table = expand_action(q, ActionSpec.from_list([0] * 6 + [1]))
        words = [w.steps for w in qg.enumerate_closed_walks(q, "v11", 4)[::7]]
        assert_gauge_invariant(triangle_network(q, 2), table, words, rng)

    @given(quivers_and_words(), st.integers(1, 3))
    @example((SELF_LOOP, [(("s", 1),), (("s", -1), ("s", 1), ("s", -1))]), 2)
    @settings(max_examples=40, deadline=None)
    def test_random_single_layout_quivers(self, case, n):
        q, words = case
        table = expand_action(q, ActionSpec.from_list([0, 1, "1/2", "1/3", "-1/5"]))
        net = triangle_network(q, n)
        assert_gauge_invariant(net, table, words, np.random.default_rng(len(words)))

    def test_two_site(self, two_site_quiver, two_site_network, rng):
        # e is fixed; ow becomes U_e U_ow U_e^-1, still U(8) twice, and ov stays
        assert gauge_tree(two_site_network) == ("e",)
        table = expand_action(two_site_quiver, ActionSpec.from_list([0, "1/2", 0, "1/3", 1]))
        words = some_closed_words(two_site_quiver, 4, 5) + [
            qg.EdgeWord.from_string("ov+ ov+ e+ ow+ ow+ e-").steps
        ]
        assert_gauge_invariant(two_site_network, table, words, rng)

    @pytest.mark.parametrize(
        "vertices, edges, layouts, c, tree",
        [
            (["a", "b"], [("ab", "a", "b"), ("ba", "b", "a")],
             {"a": (2, 2), "b": (2, 2)}, {}, ("ab",)),
            (["a", "b", "c"], [("ab", "a", "b"), ("ba", "b", "a"), ("bc", "b", "c")],
             {"a": (2, 2), "b": (2, 2), "c": (4, 1)}, {"bc": 2}, ("ab", "bc")),
            (["a", "b", "c"], [("ab", "a", "b"), ("ba", "b", "a"), ("ca", "c", "a")],
             {"a": (4, 1), "b": (4, 1), "c": (2, 2)}, {"ca": 2}, ("ab",)),
        ],
        ids=["pair", "into_u4", "from_u2_twice"],
    )
    def test_layout_networks(self, vertices, edges, layouts, c, tree, rng):
        net = layout_network(vertices, edges, layouts, c)
        assert gauge_tree(net) == tree
        table = expand_action(net.quiver, ActionSpec.from_list([0, 1, "1/2", "1/3", "-1/5"]))
        assert_gauge_invariant(net, table, some_closed_words(net.quiver, 4, 3), rng)

    def test_two_site_declared_w_first(self, two_site_quiver, rng):
        # from w, fixing e would give P_v = U_e^-1, and ov would leave v's group
        q = qg.Quiver(["w", "v"], [(e, two_site_quiver.source[e], two_site_quiver.target[e])
                                   for e in two_site_quiver.edge_ids])
        net = qg.validate_network(q, TWO_SITE_DATA)
        assert gauge_tree(net) == ()
        table = expand_action(q, ActionSpec.from_list([0, "1/2", 0, "1/3", 1]))
        assert_gauge_invariant(net, table, some_closed_words(q, 4, 5), rng)
        _, fixed = tree_gauge(net, ("e",), rng)
        assert block_deviation(net.blocks("ov"), fixed["ov"]) > 0.1

    def test_final_check_empties_the_tree(self, rng):
        # the passes take x -> y and x -> w, which would leave y -> w outside
        # w's group
        assert gauge_tree(fork_network(("xy", "xw"))) == ("xy", "xw")
        net = fork_network()
        assert gauge_tree(net) == ()
        table = expand_action(net.quiver, ActionSpec.from_list([0, "1/2", 0, "1/3", 1]))
        assert_gauge_invariant(net, table, some_closed_words(net.quiver, 4, 5), rng)
        _, fixed = tree_gauge(net, ("xy", "xw"), rng)
        assert block_deviation(net.blocks("yw"), fixed["yw"]) > 0.1

    @given(two_vertex_networks())
    @settings(max_examples=40, deadline=None)
    def test_random_two_vertex_networks(self, net):
        table = expand_action(net.quiver, ActionSpec.from_list([0, 1, "1/2", "1/3", "-1/5"]))
        words = some_closed_words(net.quiver, 3, 2)
        assert_gauge_invariant(net, table, words, np.random.default_rng(net.dim))
