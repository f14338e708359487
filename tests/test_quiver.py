import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quivergauge as qg
from quivergauge.quiver import (
    CyclicWord,
    EdgeWord,
    QuiverError,
    _free_reduce,
    is_reduced,
    reduced_closed_walk_counts,
)

from conftest import random_unitary
from oracles import cyclic_class, holonomy


def word(text):
    return EdgeWord.from_string(text)


def reduce_word(w):
    return EdgeWord(_free_reduce(w.steps))


class TestBuildQuiver:
    def test_triangle_connected(self, triangle_quiver):
        assert triangle_quiver.connected
        assert triangle_quiver.source["e2"] == "v2"
        assert triangle_quiver.target["e3"] == "v1"

    def test_two_site_self_loops(self, two_site_quiver):
        assert two_site_quiver.connected
        assert two_site_quiver.is_self_loop("ov")
        assert not two_site_quiver.is_self_loop("e")

    def test_self_loop_query_on_unknown_edge(self, two_site_quiver):
        with pytest.raises(QuiverError, match="unknown edge 'nope'"):
            two_site_quiver.is_self_loop("nope")

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(QuiverError, match="unknown"):
            qg.Quiver(["a"], [("e", "a", "b")])

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(QuiverError, match="duplicate"):
            qg.Quiver(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [(["a", "a"], [], "duplicate vertex id"),
         (["a"], [("e", "b", "a")], "edge 'e': unknown source vertex 'b'")],
        ids=["duplicate_vertex", "unknown_source"],
    )
    def test_malformed_quiver_rejected(self, vertices, edges, message):
        with pytest.raises(QuiverError, match=message):
            qg.Quiver(vertices, edges)

    def test_disconnected_flag(self):
        q = qg.Quiver(["a", "b", "c"], [("e", "a", "b")])
        assert not q.connected


class TestWordSteps:
    @pytest.mark.parametrize("text", ["e1", "e1+ +", "e1* e2+"])
    def test_bad_token_rejected(self, text):
        with pytest.raises(QuiverError, match="bad word token"):
            word(text)

    def test_unknown_edge_step(self, triangle_quiver):
        with pytest.raises(QuiverError, match="unknown edge 'nope'"):
            triangle_quiver.step_endpoints(("nope", 1))

    def test_word_not_composable(self, triangle_quiver):
        with pytest.raises(QuiverError, match="not composable at step 1"):
            triangle_quiver.word_vertices(word("e1+ e3+"))


class TestReduceWord:
    def test_full_cancellation(self):
        assert reduce_word(word("e1+ e1-")) == EdgeWord()

    def test_fixed_point(self):
        w = word("e1+ e2+ e3+")
        assert reduce_word(w) == w

    def test_lattice_loop_with_legs(self, rng):
        # 3x3 grid patch; a length-16 loop with four back-and-forth "legs"
        # reduces to the plain length-8 square with the same holonomy
        verts = [f"{i}{j}" for i in range(3) for j in range(3)]
        edges = []
        for i in range(3):
            for j in range(3):
                if i < 2:
                    edges.append((f"r{i}{j}", f"{i}{j}", f"{i+1}{j}"))
                if j < 2:
                    edges.append((f"u{i}{j}", f"{i}{j}", f"{i}{j+1}"))
        q = qg.Quiver(verts, edges)
        square = word("r00+ r10+ u20+ u21+ r12- r02- u01- u00-")
        assert q.is_closed(square) and is_reduced(square)
        legs = word(
            "u00+ u00- r00+ r10+ u20+ u20- u20+ u21+ r12- r12+ r12- r02- u01- u01+ u01- u00-"
        )
        assert q.is_closed(legs) and len(legs) == 16
        reduced = reduce_word(legs)
        assert len(reduced) == 8
        assert reduced == square
        us = {e: random_unitary(rng, 3) for e, _, _ in edges}
        h1 = holonomy(us, legs.steps, 3)
        h2 = holonomy(us, reduced.steps, 3)
        assert np.abs(h1 - h2).max() < 1e-12

    def test_holonomy_preserved(self, triangle_quiver, rng):
        w = word("e1+ e1- e1+ e2+ e2- e2+ e3+")
        r = reduce_word(w)
        us = {e: random_unitary(rng, 4) for e in triangle_quiver.edge_ids}
        assert np.abs(holonomy(us, w.steps, 4) - holonomy(us, r.steps, 4)).max() < 1e-12


class TestCyclicCanonical:
    def test_rotation_invariance(self, triangle_quiver):
        w = word("e1+ e2+ e3+")
        forms = {qg.cyclic_canonical(triangle_quiver, w.rotate(j)) for j in range(3)}
        assert len(forms) == 1

    def test_full_cyclic_cancellation(self, two_site_quiver):
        w = word("e+ ow+ ow- e-")
        assert qg.cyclic_canonical(two_site_quiver, w).is_empty

    def test_wraparound_cancellation(self, two_site_quiver):
        # trailing step cancels the leading one only across the wrap
        w = word("e+ ow+ e- ov+ ov+ ov-")
        c = qg.cyclic_canonical(two_site_quiver, w)
        assert c == qg.cyclic_canonical(two_site_quiver, word("ov+ e+ ow+ e-"))

    def test_not_closed_rejected(self, triangle_quiver):
        with pytest.raises(QuiverError, match="not closed"):
            qg.cyclic_canonical(triangle_quiver, word("e1+ e2+"))

    def test_random_rotation_matches_bruteforce(self, triangle_quiver):
        w = word("e1+ e2+ e3+ e1+ e2+ e3+")
        assert qg.cyclic_canonical(triangle_quiver, w.rotate(2)).steps == cyclic_class(w.steps)


class TestEnumerateClosedWalks:
    def test_triangle_length3(self, triangle_quiver):
        walks = qg.enumerate_closed_walks(triangle_quiver, "v1", 3)
        assert len(walks) == 2
        assert word("e1+ e2+ e3+") in walks
        assert word("e3- e2- e1-") in walks

    def test_isolated_vertex(self):
        q = qg.Quiver(["a", "b"], [("e", "b", "b")])
        assert qg.enumerate_closed_walks(q, "a", 1) == []

    def test_unknown_vertex(self, triangle_quiver):
        with pytest.raises(QuiverError, match="unknown vertex"):
            qg.enumerate_closed_walks(triangle_quiver, "nope", 2)

    @pytest.mark.parametrize("walks", [qg.enumerate_closed_walks, reduced_closed_walk_counts])
    def test_negative_length_rejected(self, triangle_quiver, walks):
        with pytest.raises(QuiverError, match="walk length must be >= 0"):
            walks(triangle_quiver, "v1", -1)

    def test_adjacency_power_oracle(self, two_site_quiver):
        a = two_site_quiver.adjacency()
        for k in range(0, 6):
            p = np.linalg.matrix_power(a, k)
            for v in two_site_quiver.vertices:
                i = two_site_quiver.vertex_index(v)
                walks = qg.enumerate_closed_walks(two_site_quiver, v, k)
                assert len(walks) == p[i, i]
                assert len(set(walks)) == len(walks)


words_st = st.lists(
    st.tuples(st.sampled_from(["e1", "e2", "e3"]), st.sampled_from([1, -1])),
    max_size=12,
).map(lambda steps: EdgeWord(tuple(steps)))


class TestWordProperties:
    @given(words_st)
    @settings(max_examples=200, deadline=None)
    def test_reduce_idempotent_and_shorter(self, w):
        r = reduce_word(w)
        assert reduce_word(r) == r
        assert len(r) <= len(w)

    @given(words_st)
    @settings(max_examples=200, deadline=None)
    def test_reverse_involution(self, w):
        assert w.reverse().reverse() == w

    @given(words_st)
    @settings(max_examples=200, deadline=None)
    def test_reverse_preserves_reducedness(self, w):
        r = reduce_word(w)
        assert is_reduced(r.reverse())

    @given(j=st.integers(min_value=0, max_value=11), reps=st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_canonical_rotation_invariant(self, triangle_quiver, j, reps):
        w = EdgeWord.from_string("e1+ e2+ e3+") ** reps
        assert qg.cyclic_canonical(triangle_quiver, w.rotate(j)) == qg.cyclic_canonical(
            triangle_quiver, w
        )


# words over one to three edges, named so that string order is not length order
small_words_st = st.lists(
    st.sampled_from(["e1", "e10", "e2"]), min_size=1, max_size=3, unique=True
).flatmap(
    lambda edges: st.lists(
        st.tuples(st.sampled_from(edges), st.sampled_from([1, -1])), max_size=12
    ).map(tuple)
)


class TestCanonicalFormOracle:
    @given(small_words_st, st.integers(min_value=1, max_value=4))
    @example((("e1", 1), ("e2", 1), ("e1", 1), ("e2", -1)), 1)  # least step twice, aperiodic
    @example((("e2", 1), ("e1", -1), ("e2", -1), ("e1", -1)), 1)  # least edge only backward
    @example((("e10", 1), ("e1", -1), ("e2", 1)), 3)  # a power
    @settings(max_examples=300, deadline=None)
    def test_matches_definition(self, steps, power):
        w = steps * power
        c = CyclicWord.of(w)
        assert c.steps == cyclic_class(w)
        # the generated dataclass hash, so dict and set orders stay as they were
        assert hash(c) == hash((c.steps,)) and c == CyclicWord(c.steps)
        assert repr(c) == f"CyclicWord(steps={c.steps!r})"

    @given(small_words_st, small_words_st, st.integers(min_value=0, max_value=11),
           st.integers(min_value=0, max_value=11))
    @example((("e1", 1), ("e2", 1)), (("e2", -1), ("e1", -1)), 0, 0)  # cancels to nothing
    @example((("e1", 1), ("e2", 1), ("e10", 1)), (("e1", -1), ("e2", 1)), 0, 0)
    @settings(max_examples=300, deadline=None)
    def test_splice_of_reduced_words(self, u, v, i, j):
        # any rotation of a cyclically reduced word is cyclically reduced
        u, v = cyclic_class(u), cyclic_class(v)
        u = u[i % len(u) :] + u[: i % len(u)] if u else u
        v = v[j % len(v) :] + v[: j % len(v)] if v else v
        assert CyclicWord.splice(u, v) == CyclicWord.of(u + v)
        assert CyclicWord.splice(u, v).steps == cyclic_class(u + v)
