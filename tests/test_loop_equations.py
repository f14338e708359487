import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

import quivergauge as qg
from quivergauge.action import ActionSpec, PlaquetteTable, expand_action
from quivergauge.laurent import YXPoly
from quivergauge.loop_equations import factorize_large_N, generate_loop_equation
from quivergauge.quiver import EdgeWord, QuiverError, _cyclic_reduce, reduced_closed_walk_counts

from conftest import REPO
from test_action import quivers_and_actions, torus_quiver


ZETA = EdgeWord.from_string("e1+ e2+ e3+")


@pytest.fixture(scope="module")
def tri_table(triangle_quiver):
    # f3 = 1/3 makes the plaquette coupling exactly 1
    return expand_action(triangle_quiver, ActionSpec.from_list([0, 0, 0, "1/3"]))


def cyc(q, w):
    if isinstance(w, str):
        w = EdgeWord.from_string(w)
    return qg.cyclic_canonical(q, w)


def four_branch_reference(q, table, beta, root):
    """Both sides of the loop equation, built by splitting and regluing.

    The cyclically reduced word is split into its root steps and the
    root-free segments between them.  Double-trace pairs and plaquette
    splices are then glued back through four branches: left or right
    translation, times a forward or backward root step.  Returns the merged
    (sign, key) lists of both sides, in first-seen order.
    """
    beta = EdgeWord(_cyclic_reduce(beta.steps))
    occ = [i for i, (e, _) in enumerate(beta.steps) if e == root]
    fwd = [i for i in occ if beta.steps[i][1] > 0]
    rotated = beta.rotate((fwd or occ)[0]) if occ else beta
    signs, between = [], []
    for step in rotated.steps if occ else ():
        if step[0] == root:
            signs.append(step[1])
            between.append(())
        else:
            between[-1] += (step,)
    forward = not signs or signs[0] > 0

    lhs = []
    segs = [((root, s),) + mu for s, mu in zip(signs, between)]
    prefix = ()
    for j, (sj, mu_j) in enumerate(zip(signs, between)):
        suffix, rest = sum(segs[j:], ()), sum(segs[j + 1 :], ())
        if forward:  # left translation: U -> exp(iY) U
            w1, w2, sign = (prefix, suffix, 1) if sj > 0 else (prefix + ((root, -1),), mu_j + rest, -1)
        else:  # right translation: U -> U exp(iY)
            w1, w2, sign = (prefix + ((root, 1),), mu_j + rest, 1) if sj > 0 else (prefix, suffix, -1)
        pair = sorted((cyc(q, EdgeWord(w1)), cyc(q, EdgeWord(w2))), key=lambda c: (len(c), c.steps))
        lhs.append((sign, tuple(pair)))
        prefix += segs[j]

    base = rotated.steps
    if not signs and beta.steps:
        verts = q.word_vertices(beta)
        if q.source[root] in verts:
            base = beta.rotate(verts.index(q.source[root])).steps
        elif any(e == root for w in table.entries for e, _ in w.steps):
            raise QuiverError(f"loop {beta} does not visit the source of rooted edge {root!r}")
    rhs = []
    for gamma in table.entries:
        for i, (e, o) in enumerate(gamma.steps):
            if e != root:
                continue
            rot_at = gamma.steps[i:] + gamma.steps[:i]  # starts with the root step
            rot_after = gamma.steps[i + 1 :] + gamma.steps[: i + 1]  # ends with it
            if forward:
                insert = rot_at if o > 0 else rot_after
            else:
                insert = rot_after if o > 0 else rot_at
            rhs.append((1 if o > 0 else -1, (gamma, cyc(q, EdgeWord(base + insert)))))
    return merged(lhs), merged(rhs)


def merged(terms):
    acc = {}
    for c, key in terms:
        acc[key] = acc.get(key, 0) + c
    return [(c, key) for key, c in acc.items() if c != 0]


def assert_matches_reference(q, table, beta, root):
    """The cut rule gives the reference's terms, order included, in both modes."""
    try:
        expected = four_branch_reference(q, table, beta, root)
    except QuiverError as exc:
        for mode in ("finite", "large"):
            with pytest.raises(QuiverError, match=re.escape(str(exc))):
                generate_loop_equation(q, table, beta, root, mode=mode)
        return
    for mode in ("finite", "large"):
        eq = generate_loop_equation(q, table, beta, root, mode=mode)
        lhs = [(t.coeff, t.words) for t in eq.lhs]
        rhs = [(t.multiplicity, (t.plaquette, t.word)) for t in eq.rhs]
        assert (lhs, rhs) == expected, f"{beta} at {root} ({mode})"


def assert_reduced_words_match(q, table, max_len):
    """Every reduced closed word up to ``max_len``, at every non-self-loop root."""
    words = set()
    for v in q.vertices:
        for level in reduced_closed_walk_counts(q, v, max_len):
            words.update(level)
    roots = [e for e in q.edge_ids if not q.is_self_loop(e)]
    for steps in sorted(words):
        for root in roots:
            assert_matches_reference(q, table, EdgeWord(steps), root)


class TestFourBranchReference:
    """One cut per root step gives what the four translation branches gave."""

    @pytest.mark.parametrize("path", sorted((REPO / "jobs").glob("*.json")), ids=lambda p: p.stem)
    def test_jobs(self, path):
        job = qg.load_job(str(path))
        assert_reduced_words_match(job.quiver, expand_action(job.quiver, job.action), 5)

    def test_torus_degree_6(self):
        q = torus_quiver(3)
        table = expand_action(q, ActionSpec.from_list([0] * 6 + [1]))
        for cls in table.entries:
            for root in ("h00", "u00"):
                assert_matches_reference(q, table, cls.word(), root)

    @given(quivers_and_actions())
    @settings(max_examples=40, deadline=None)
    def test_random_quivers(self, case):
        q, f = case
        assert_reduced_words_match(q, expand_action(q, f), 4)


class TestGenerateLoopEquation:
    def test_zeta_power_structure(self, triangle_quiver, tri_table):
        n = 3
        eq = generate_loop_equation(triangle_quiver, tri_table, ZETA**n, "e1")
        zc = cyc(triangle_quiver, ZETA)
        # lhs: unordered pairs {zeta^l, zeta^(n-l)}, all coefficient +1
        got = {}
        for t in eq.lhs:
            got[t.words] = t.coeff
        expected = {}
        for l in range(n):
            pair = tuple(
                sorted(
                    [cyc(triangle_quiver, ZETA**l), cyc(triangle_quiver, ZETA ** (n - l))],
                    key=lambda c: (len(c.steps), tuple(c.steps)),
                )
            )
            expected[pair] = expected.get(pair, 0) + 1
        assert got == expected
        # rhs: + coupling * zeta^(n+1), - coupling * zeta^(n-1)
        rhs = {(t.plaquette, t.word): t.multiplicity for t in eq.rhs}
        assert rhs[(zc, cyc(triangle_quiver, ZETA ** (n + 1)))] == 1
        assert rhs[(zc.reverse(), cyc(triangle_quiver, ZETA ** (n - 1)))] == -1
        assert len(rhs) == 2

    def test_remark_first_term_contains_full_loop(self, triangle_quiver, tri_table):
        eq = generate_loop_equation(triangle_quiver, tri_table, ZETA**2, "e1")
        full = cyc(triangle_quiver, ZETA**2)
        empty_pairs = [t for t in eq.lhs if t.words[0].is_empty]
        assert any(t.words[1] == full for t in empty_pairs)

    def test_constant_loop(self, triangle_quiver, tri_table):
        eq = generate_loop_equation(triangle_quiver, tri_table, EdgeWord(), "e1")
        assert eq.lhs == ()
        rhs = {(t.plaquette, t.word): t.multiplicity for t in eq.rhs}
        zc = cyc(triangle_quiver, ZETA)
        assert rhs == {(zc, zc): 1, (zc.reverse(), zc.reverse()): -1}

    def test_no_plaquette_meets_root(self, two_site_quiver):
        # quadratic action has only self-loop plaquettes; the bridge is clean
        table = expand_action(two_site_quiver, ActionSpec.from_list([0, 0, 1]))
        beta = EdgeWord.from_string("e+ ow+ e- ov+")
        eq = generate_loop_equation(two_site_quiver, table, beta, "e")
        assert eq.rhs == ()
        assert eq.lhs != ()

    def test_conjugation_terms_cancel(self, two_site_quiver):
        # beta = e mu e^-1: the two split terms coincide after cyclic
        # canonicalisation and merge away; the relation is trivially 0 = 0
        table = expand_action(two_site_quiver, ActionSpec.from_list([0, 0, 1]))
        beta = EdgeWord.from_string("e+ ow+ e-")
        eq = generate_loop_equation(two_site_quiver, table, beta, "e")
        assert eq.lhs == () and eq.rhs == ()

    def test_loop_avoiding_root(self, two_site_quiver):
        table = expand_action(two_site_quiver, ActionSpec.from_list([0, 0, 1]))
        beta = EdgeWord.from_string("ow+ ow+")
        eq = generate_loop_equation(two_site_quiver, table, beta, "e")
        assert eq.lhs == () and eq.rhs == ()

    def test_rotation_invariance(self, triangle_quiver, tri_table):
        eq1 = generate_loop_equation(triangle_quiver, tri_table, ZETA**2, "e1")
        eq2 = generate_loop_equation(triangle_quiver, tri_table, (ZETA**2).rotate(4), "e1")
        assert eq1.lhs == eq2.lhs and eq1.rhs == eq2.rhs

    def test_single_intersection_two_terms_per_pair(self, triangle_quiver, tri_table):
        # every plaquette meets the root exactly once: two rhs terms per
        # conjugate plaquette pair
        eq = generate_loop_equation(triangle_quiver, tri_table, ZETA, "e1")
        assert len(eq.rhs) == 2
        assert {t.multiplicity for t in eq.rhs} == {1, -1}

    def test_self_loop_root_rejected(self, two_site_quiver):
        table = expand_action(two_site_quiver, ActionSpec.from_list([0, 0, 1]))
        with pytest.raises(QuiverError, match="self-loop"):
            generate_loop_equation(two_site_quiver, table, EdgeWord.from_string("ov+"), "ov")

    def test_unreduced_rejected(self, triangle_quiver, tri_table):
        with pytest.raises(QuiverError, match="reduced"):
            generate_loop_equation(
                triangle_quiver, tri_table, EdgeWord.from_string("e1+ e1- e1+ e2+ e3+"), "e1"
            )

    def test_loop_off_the_root_source_rejected(self):
        # the quartic two-site table splices e into ov/ow plaquettes, but ow+ ow+
        # stays at w and never reaches v, the source of e
        job = qg.load_job(str(REPO / "jobs" / "two_site.json"))
        table = expand_action(job.quiver, job.action)
        with pytest.raises(QuiverError, match="does not visit the source of rooted edge 'e'"):
            generate_loop_equation(job.quiver, table, EdgeWord.from_string("ow+ ow+"), "e")

    def test_bad_mode_rejected(self, triangle_quiver, tri_table):
        with pytest.raises(ValueError, match="mode must be 'finite' or 'large', got 'small'"):
            generate_loop_equation(triangle_quiver, tri_table, ZETA, "e1", mode="small")

    def test_open_word_rejected(self, triangle_quiver, tri_table):
        with pytest.raises(QuiverError, match="word e1\\+ e2\\+ is not closed"):
            generate_loop_equation(triangle_quiver, tri_table, EdgeWord.from_string("e1+ e2+"), "e1")

    def test_root_occurrences_follow_the_table(self, triangle_quiver):
        table = expand_action(triangle_quiver, ActionSpec.from_list([0, 0, 0, "1/3"]))
        before = generate_loop_equation(triangle_quiver, table, ZETA, "e1")
        new = cyc(triangle_quiver, ZETA**2)
        assert new not in table.entries and new not in {t.plaquette for t in before.rhs}
        table.add(new, Fraction(1))
        added = generate_loop_equation(triangle_quiver, table, ZETA, "e1")
        # both e1 steps of zeta^2 splice zeta into zeta^3
        spliced = [(t.multiplicity, t.word) for t in added.rhs if t.plaquette == new]
        assert spliced == [(2, cyc(triangle_quiver, ZETA**3))]
        fresh = PlaquetteTable(entries=dict(table.entries))
        assert added == generate_loop_equation(triangle_quiver, fresh, ZETA, "e1")
        table.add(new, Fraction(-1))
        table.drop_zeros()
        assert generate_loop_equation(triangle_quiver, table, ZETA, "e1") == before

    def test_serialization_roundtrip(self, triangle_quiver, tri_table):
        eq = generate_loop_equation(triangle_quiver, tri_table, ZETA, "e1")
        d = eq.to_json_dict(tri_table)
        assert d["mode"] == "finite"
        assert d["rhs"][0]["coefficient"] == "1"
        assert "tr(" in eq.render(tri_table)


class TestFactorizeLargeN:
    def test_zeta_power_moments(self, triangle_quiver, tri_table):
        for n in range(1, 7):
            eq = generate_loop_equation(
                triangle_quiver, tri_table, ZETA**n, "e1", mode="large"
            )
            meq = factorize_large_N(eq)
            lhs = sorted((c, tuple(sorted((i, j)))) for c, i, j in meq.lhs)
            expected = {}
            for l in range(n):
                key = tuple(sorted((l, n - l)))
                expected[key] = expected.get(key, 0) + 1
            assert lhs == sorted((c, k) for k, c in expected.items())
            rhs = {k: m for m, _, k in meq.rhs}
            assert rhs == {n + 1: 1, n - 1: -1}

    def test_negative_power_moments(self, triangle_quiver, tri_table):
        n = 3
        eq = generate_loop_equation(
            triangle_quiver, tri_table, ZETA ** (-n), "e1", mode="large"
        )
        meq = factorize_large_N(eq)
        got = {tuple(sorted((i, j))): c for c, i, j in meq.lhs}
        expected: dict = {}
        for l in range(n):
            key = tuple(sorted((-l, -(n - l))))
            expected[key] = expected.get(key, 0) - 1
        assert got == expected
        rhs = {k: m for m, _, k in meq.rhs}
        assert rhs == {-(n - 1): 1, -(n + 1): -1}

    def test_symbolic_identity(self, triangle_quiver, tri_table):
        # substituting the exact moment table turns each relation into zero
        for n in list(range(1, 7)) + [-1, -2, -3]:
            eq = generate_loop_equation(
                triangle_quiver, tri_table, ZETA**n if n > 0 else ZETA**n, "e1", mode="large"
            )
            meq = factorize_large_N(eq)
            residual = meq.residual_polynomial(
                lambda k: qg.moment(abs(k)), lambda p: YXPoly.x()
            )
            assert residual.is_zero, f"n={n}: residual {residual}"

    def test_n_equals_one_reduces_to_m2(self, triangle_quiver, tri_table):
        # m0*m1 = x(m2 - m0)  =>  m2 = 1 + m1/x
        eq = generate_loop_equation(triangle_quiver, tri_table, ZETA, "e1", mode="large")
        meq = factorize_large_N(eq)
        m2_from_relation = (
            qg.moment(0) * qg.moment(1) / YXPoly.x() + qg.moment(0)
        )
        assert m2_from_relation == qg.moment(2)
        residual = meq.residual_polynomial(
            lambda k: qg.moment(abs(k)), lambda p: YXPoly.x()
        )
        assert residual.is_zero

    def test_empty_equation(self, two_site_quiver):
        # e mu e^-1 at root e cancels to 0 = 0 (see test_conjugation_terms_cancel)
        table = expand_action(two_site_quiver, ActionSpec.from_list([0, 0, 1]))
        beta = EdgeWord.from_string("e+ ow+ e-")
        meq = factorize_large_N(generate_loop_equation(two_site_quiver, table, beta, "e", "large"))
        assert meq.generator.is_empty and meq.lhs == () and meq.rhs == ()
        assert meq.render() == "0 = 0"

    def test_requires_large_mode(self, triangle_quiver, tri_table):
        eq = generate_loop_equation(triangle_quiver, tri_table, ZETA, "e1", mode="finite")
        with pytest.raises(ValueError, match="large-N"):
            factorize_large_N(eq)
