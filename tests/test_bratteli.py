import copy

import pytest
from hypothesis import given, settings

import quivergauge as qg
from quivergauge.bratteli import NetworkError, _contained, _tree_from, gauge_tree

from conftest import (
    TWO_SITE_DATA,
    fork_network,
    layout_network,
    torus_quiver,
    triangle_network,
    two_vertex_data,
)


class TestValidateNetwork:
    def test_two_site_example(self, two_site_quiver, two_site_network):
        assert two_site_network.dim == 16
        assert two_site_network.n["v"] == (3, 2)
        assert two_site_network.r["v"] == (4, 2)

    def test_triangle_single_block(self, triangle_quiver):
        net = triangle_network(triangle_quiver, 5)
        assert net.dim == 5

    def test_hand_inner_product(self, two_site_network):
        n, r = two_site_network.n["v"], two_site_network.r["v"]
        assert sum(a * b for a, b in zip(n, r)) == 3 * 4 + 2 * 2 == 16

    def test_broken_multiplicity_rejected(self, two_site_quiver):
        data = copy.deepcopy(TWO_SITE_DATA)
        data["r"]["w"] = [3]
        with pytest.raises(NetworkError, match=r"r\['v'\] = C @ r\['w'\]"):
            qg.validate_network(two_site_quiver, data)

    def test_shape_mismatch_rejected(self, two_site_quiver):
        data = copy.deepcopy(TWO_SITE_DATA)
        data["C"]["e"] = [[2, 1]]
        with pytest.raises(NetworkError, match="2x1"):
            qg.validate_network(two_site_quiver, data)

    def test_nonpositive_entries_rejected(self, two_site_quiver):
        data = copy.deepcopy(TWO_SITE_DATA)
        data["n"]["w"] = [0]
        with pytest.raises(NetworkError, match="positive"):
            qg.validate_network(two_site_quiver, data)

    @pytest.mark.parametrize("malform, message", [
        (lambda d: d["n"].update(w=["eight"]), r"n\['w'\] must be a sequence of integers"),
        (lambda d: d.pop("C"), "missing section 'C'"),
        (lambda d: d["r"].pop("w"), "section 'r' missing vertex 'w'"),
        (lambda d: d["l"].update(w=0), r"l\['w'\] must be positive"),
        (lambda d: d["l"].update(w=2), r"l\['w'\]=2 entries, got 1 and 1"),
        (lambda d: d["C"].pop("ow"), "section 'C' missing edge 'ow'"),
        (lambda d: d["n"].update(w=[9]), r"n\['w'\] = C\^T @ n\['v'\]: C\^T @ n gives \(8,\)"),
        # block data are JSON integers: nothing is rounded or converted
        (lambda d: d["n"].update(w=[8.7]), r"n\['w'\] must be a sequence of integers, got \[8\.7\]"),
        (lambda d: d["n"].update(w=["8"]), r"n\['w'\] must be a sequence of integers, got \['8'\]"),
        (lambda d: d["r"].update(w=2), r"r\['w'\] must be a sequence of integers, got 2"),
        (lambda d: d["l"].update(w=1.9), r"l\['w'\] must be an integer, got 1\.9"),
        (lambda d: d["l"].update(w=None), r"l\['w'\] must be an integer, got None"),
        (lambda d: d["C"].update(ow=[[True]]), r"C\['ow'\] row must be a sequence of integers"),
        (lambda d: d["C"].update(ow=5), r"C\['ow'\] must be a sequence of rows, got 5"),
        (lambda d: d.update(l=5), "network section 'l' must be an object, got 5"),
    ], ids=["non-integer", "section", "vertex", "l", "length", "edge", "n-transition",
            "float-n", "string-n", "scalar-r", "float-l", "null-l", "bool-C", "scalar-C",
            "scalar-section"])
    def test_malformed_data_rejected(self, two_site_quiver, malform, message):
        data = copy.deepcopy(TWO_SITE_DATA)
        malform(data)
        with pytest.raises(NetworkError, match=message):
            qg.validate_network(two_site_quiver, data)

    def test_disconnected_rejected(self):
        q = qg.Quiver(["a", "b"], [("o", "a", "a")])
        with pytest.raises(NetworkError, match="disconnected"):
            qg.validate_network(
                q,
                {
                    "l": {"a": 1, "b": 1},
                    "n": {"a": [2], "b": [2]},
                    "r": {"a": [1], "b": [1]},
                    "C": {"o": [[1]]},
                },
            )

    def test_single_entry_flips_rejected_unless_consistent(self, two_site_quiver):
        # perturbing any one C entry must be rejected unless both transition
        # equations still hold for the perturbed matrix
        for eid in TWO_SITE_DATA["C"]:
            rows = TWO_SITE_DATA["C"][eid]
            for i in range(len(rows)):
                for j in range(len(rows[0])):
                    for delta in (-1, 1):
                        data = copy.deepcopy(TWO_SITE_DATA)
                        data["C"][eid][i][j] += delta
                        if data["C"][eid][i][j] < 0:
                            with pytest.raises(NetworkError):
                                qg.validate_network(two_site_quiver, data)
                            continue
                        src = two_site_quiver.source[eid]
                        tgt = two_site_quiver.target[eid]
                        c = data["C"][eid]
                        r_ok = all(
                            sum(c[a][b] * data["r"][tgt][b] for b in range(len(c[0])))
                            == data["r"][src][a]
                            for a in range(len(c))
                        )
                        n_ok = all(
                            sum(c[a][b] * data["n"][src][a] for a in range(len(c)))
                            == data["n"][tgt][b]
                            for b in range(len(c[0]))
                        )
                        if r_ok and n_ok:
                            qg.validate_network(two_site_quiver, data)
                        else:
                            with pytest.raises(NetworkError):
                                qg.validate_network(two_site_quiver, data)

    def test_network_that_is_not_an_object_rejected(self, two_site_quiver):
        with pytest.raises(NetworkError, match="network data must be an object, got 5"):
            qg.validate_network(two_site_quiver, 5)

    def test_no_vertices_rejected(self):
        with pytest.raises(NetworkError, match="quiver has no vertices"):
            qg.validate_network(qg.Quiver([], []), {"l": {}, "n": {}, "r": {}, "C": {}})

    @given(two_vertex_data())
    @settings(max_examples=60, deadline=None)
    def test_transition_equations_fix_the_dimension(self, data):
        # <n_tgt, r_tgt> = <C^T n_src, r_tgt> = <n_src, C r_tgt> = <n_src, r_src>
        net = qg.validate_network(qg.Quiver(["a", "b"], [("e", "a", "b")]), data)
        n_src, r_src, n_tgt, r_tgt = data["n"]["a"], data["r"]["a"], data["n"]["b"], data["r"]["b"]
        assert net.dim == sum(a * b for a, b in zip(n_src, r_src))
        assert net.dim == sum(a * b for a, b in zip(n_tgt, r_tgt))

    def test_edge_order_irrelevant(self):
        edges = [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")]
        nets = []
        for perm in (edges, edges[::-1], [edges[1], edges[2], edges[0]]):
            q = qg.Quiver(["v1", "v2", "v3"], perm)
            nets.append(triangle_network(q, 4))
        assert all(n.dim == 4 for n in nets)


class TestEnsemble:
    def test_two_site_factors(self, two_site_network):
        assert two_site_network.blocks("ov") == ((3, 4), (2, 2))
        assert two_site_network.blocks("e") == ((8, 2),)
        assert two_site_network.blocks("ow") == ((8, 2),)

    def test_triangle_factors(self, triangle_quiver):
        net = triangle_network(triangle_quiver, 7)
        assert all(net.blocks(e) == ((7, 1),) for e in triangle_quiver.edge_ids)

    def test_block_sum_equals_dimension(self, two_site_network):
        for e in two_site_network.quiver.edge_ids:
            assert sum(n * r for n, r in two_site_network.blocks(e)) == two_site_network.dim


def diagonal_walk(net, tree):
    """The off-tree sites walked one copy at a time along each edge's target
    diagonal: (edge, edge index, block index, n, copies' slices)."""
    sites = []
    for ei, e in enumerate(net.quiver.edge_ids):
        if e in tree:
            continue
        v, pos = net.quiver.target[e], 0
        for bi in range(len(net.n[v])):
            n, copies = net.n[v][bi], []
            for _ in range(net.r[v][bi]):
                copies.append(slice(pos, pos + n))
                pos += n
            sites.append((e, ei, bi, n, copies))
    return sites


class TestSites:
    def test_two_site(self, two_site_network):
        spans = [
            (e, ei, bi, n, [(c.start, c.stop) for c in copies])
            for e, ei, bi, n, copies in two_site_network.sites(("e",))
        ]
        assert spans == [
            ("ov", 0, 0, 3, [(0, 3), (3, 6), (6, 9), (9, 12)]),
            ("ov", 0, 1, 2, [(12, 14), (14, 16)]),
            ("ow", 2, 0, 8, [(0, 8), (8, 16)]),
        ]

    def test_triangle(self, triangle_quiver):
        net = triangle_network(triangle_quiver, 4)
        assert net.sites(gauge_tree(net)) == [("e3", 2, 0, 4, [slice(0, 4)])]

    def test_torus(self):
        net = triangle_network(torus_quiver(3), 2)
        tree = gauge_tree(net)
        off_tree = [e for e in net.quiver.edge_ids if e not in tree]
        assert len(off_tree) == 10
        assert [site[0] for site in net.sites(tree)] == off_tree

    @pytest.mark.parametrize("case", ["two_site", "two_site_no_tree", "triangle", "torus", "fork"])
    def test_matches_a_diagonal_walk(self, case, two_site_network, triangle_quiver):
        net = {
            "two_site": two_site_network, "two_site_no_tree": two_site_network,
            "triangle": triangle_network(triangle_quiver, 5),
            "torus": triangle_network(torus_quiver(3), 2), "fork": fork_network(),
        }[case]
        tree = () if case == "two_site_no_tree" else gauge_tree(net)
        sites = net.sites(tree)
        assert sites == diagonal_walk(net, tree)
        assert not {e for e, *_ in sites} & set(tree)
        # each off-tree edge's copies tile [0, N) exactly once
        for e in net.quiver.edge_ids:
            if e not in tree:
                slices = [c for f, *_, copies in sites if f == e for c in copies]
                cells = [i for c in slices for i in range(c.start, c.stop)]
                assert sorted(cells) == list(range(net.dim)), e


class TestGaugeTree:
    @pytest.mark.parametrize("inner, outer, contained", [
        (None, ((3, 4), (2, 2)), True),  # P = 1
        (((3, 4), (2, 2)), ((3, 4), (2, 2)), True),
        (((2, 2),), ((4, 1),), True),  # U(2) twice in U(4)
        (((1, 4),), ((2, 2),), True),  # U(1) four times in U(2) twice
        (((2, 4),), ((4, 2),), True),
        (((2, 2), (2, 2)), ((4, 2),), False),  # the two copies would differ
        (((2, 1), (2, 1)), ((2, 2),), False),
        (((1, 2), (2, 1)), ((2, 2),), False),
        (((3, 4), (2, 2)), ((8, 2),), False),  # 8 is no boundary of v's blocks
        (((8, 2),), ((3, 4), (2, 2)), False),
        (((2, 1), (3, 1)), ((3, 1), (2, 1)), False),  # reordered summands
    ])
    def test_block_group_containment(self, inner, outer, contained):
        assert _contained(inner, outer) is contained

    def test_triangle(self, triangle_quiver):
        # passes in declaration order: e1 reaches v2, e2 then reaches v3
        assert gauge_tree(triangle_network(triangle_quiver, 4)) == ("e1", "e2")

    def test_two_site_fixes_e(self, two_site_network):
        # P_v = 1 and P_w = U_e lie in w's U(8)-twice group, which holds
        # every edge into w
        assert gauge_tree(two_site_network) == ("e",)

    def test_torus_spanning_tree(self):
        q = torus_quiver(3)
        tree = gauge_tree(triangle_network(q, 2))
        # 8 edges that join all 9 vertices: a spanning tree
        assert len(tree) == 8 == len(q.vertices) - 1
        assert qg.Quiver(q.vertices, [(e, q.source[e], q.target[e]) for e in tree]).connected

    def test_self_loops_and_parallel_edges(self):
        q = qg.Quiver(["a", "b"], [("s", "a", "a"), ("p", "a", "b"), ("p2", "a", "b")])
        assert gauge_tree(triangle_network(q, 3)) == ("p",)

    def test_edge_leaving_the_region_empties_the_tree(self):
        # a and b carry U(2) twice, c one U(4): U(2) twice lies in U(4), so
        # b -> c joins the tree and P_c = U_ab U_bc stays in c's group
        layouts = {"a": (2, 2), "b": (2, 2), "c": (4, 1)}
        edges = [("ab", "a", "b"), ("ba", "b", "a")]
        assert gauge_tree(layout_network(["a", "b"], edges, layouts, {})) == ("ab",)
        net = layout_network(["a", "b", "c"], edges + [("bc", "b", "c")], layouts, {"bc": 2})
        assert gauge_tree(net) == ("ab", "bc")
        # x and y carry the two-site v layout, w U(8) twice. From x, x -> y
        # joins the tree, but P_y lies in y's group, not in w's, so y -> w
        # cannot join the tree nor stay in its ensemble. From y, tried next,
        # P_y = 1 and both edges join
        net = fork_network(("xy", "yw"))
        assert _tree_from(net, "x") == ()
        assert gauge_tree(net) == ("xy", "yw")

    def test_edge_entering_the_region_keeps_the_tree(self):
        # from a, c -> a ends in the region, in the region's own U(4)
        # ensemble, and stays off the tree; from c, tried last, it joins the
        # tree and the tree spans
        layouts = {"a": (4, 1), "b": (4, 1), "c": (2, 2)}
        edges = [("ab", "a", "b"), ("ba", "b", "a"), ("ca", "c", "a")]
        net = layout_network(["a", "b", "c"], edges, layouts, {"ca": 2})
        assert _tree_from(net, "a") == ("ab",)
        assert gauge_tree(net) == ("ab", "ca")
