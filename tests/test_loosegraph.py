"""Loose-graph model, parser, generators and structural algorithms."""

from __future__ import annotations

from pathlib import Path
from random import Random

import pytest

from conftest import random_loose_graph
from paper_objects import ambient_coordinates
from loosezeta import (
    GenerateError,
    LooseGraph,
    LooseGraphError,
    ParseError,
    class_polynomial,
    connected_components,
    generate,
    induced,
    is_connected,
    is_loose_tree,
    neighborhood,
    parse,
    reduce,
    resolve,
    serialize,
    spanning_tree,
    tree_profile,
)
from loosezeta.cli import main
from loosezeta.polyring import L, Poly, format_poly
from paper_objects import cone


def test_readme_format_example_parses(monkeypatch, tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## The `.lg` format", 1)[1]
    block = section.split("```\n", 2)[1]
    expected = LooseGraph.build(["a", "b"], [("a", "b")], {"a": 1}, 1)
    text = format_poly(class_polynomial(expected), "L") + "\n"
    path = tmp_path / "readme.lg"
    path.write_text(block)

    def refuse(*args, **kwargs):
        raise AssertionError("LooseGraph.build called")

    # parse() makes build()'s checks per line and constructs its value
    # itself, so neither it nor the class command calls build()
    monkeypatch.setattr(LooseGraph, "build", refuse)
    assert parse(block, strict=True) == parse(block) == expected
    assert main(["class", str(path)]) == 0
    assert capsys.readouterr() == (text, "")


def test_parse_p1():
    g = parse("vertex a\nvertex b\nedge a b\n")
    assert g.vertices == ("a", "b")
    assert g.edges == (("a", "b"),)
    assert not g.loose and g.free == 0


def test_parse_affine_plane():
    g = parse("vertex a\nloose a\nloose a\n")
    assert g.vertices == ("a",)
    assert g.loose == (("a", 2),)
    assert g.degree("a") == 2


def test_parse_errors():
    with pytest.raises(ParseError, match="line 1.*loop"):
        parse("edge a a\n")
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        parse("edge a b\n# fine\nedge b a\n")
    with pytest.raises(ParseError, match="line 2"):
        parse("vertex a\nbogus a b\n")
    with pytest.raises(ParseError, match="strict"):
        parse("edge a b\n", strict=True)
    # strict mode passes when everything is declared
    g = parse("vertex a\nvertex b\nedge a b\nloose a\nfree\n", strict=True)
    assert g.free == 1 and g.loose == (("a", 1),)


def test_parse_tells_a_second_declaration_from_a_late_one():
    with pytest.raises(ParseError, match=r"^line 2: vertex 'a' declared twice$"):
        parse("vertex a\nvertex a\n")
    # the first occurrence of a was its use in an edge line, not a declaration
    with pytest.raises(ParseError, match=r"^line 2: vertex 'a' declared after its first use$"):
        parse("edge a b\nvertex a\n")
    with pytest.raises(ParseError, match=r"^line 3: vertex 'b' declared after its first use$"):
        parse("vertex a\nloose b\nvertex b\n")


def test_parse_ends_lines_at_crlf_and_lone_cr():
    for sep in ("\r\n", "\r", "\n"):
        assert parse(f"vertex a{sep}edge a b{sep}loose b{sep}").edges == (("a", "b"),)
        with pytest.raises(ParseError, match=r"^line 2: vertex 'a' declared twice$"):
            parse(f"vertex a{sep}vertex a{sep}")


def test_parse_first_mention_order_and_comments():
    g = parse("# a header\n\nedge z y\nedge y x\nloose w\n")
    assert g.vertices == ("z", "y", "x", "w")


def test_serialize_round_trip():
    rng = Random(11)
    for _ in range(40):
        g = random_loose_graph(rng)
        text = serialize(g)
        h = parse(text)
        assert h.edge_set() == g.edge_set()
        assert dict(h.loose) == dict(g.loose)
        assert h.free == g.free
        assert serialize(h) == text  # canonical form is a fixed point


def test_generate_families():
    k5 = generate("complete", 5)
    assert k5.n_vertices == 5 and k5.n_edges == 10
    s42 = generate("star", 4, 2)
    assert s42.n_vertices == 3 and s42.n_edges == 2
    assert s42.degree("v0") == 4 and s42.loose_count("v0") == 2
    a3 = generate("affine", 3)
    assert a3.n_vertices == 1 and dict(a3.loose) == {"o": 3}
    p2 = generate("projective", 2)
    assert p2.edge_set() == generate("complete", 3).edge_set()
    j42 = generate("johnson", 4, 2)
    assert j42.n_vertices == 6 and j42.n_edges == 12
    assert all(j42.degree(v) == 4 for v in j42.vertices)
    hexa = generate("hexahedron")
    assert hexa.n_vertices == 8 and hexa.n_edges == 12
    assert all(hexa.degree(v) == 3 for v in hexa.vertices)
    cyc = generate("cycle", 4)
    assert cyc.n_edges == 4 and all(cyc.degree(v) == 2 for v in cyc.vertices)
    path = generate("path", 2)
    assert path.n_edges == 1


def test_generate_errors():
    with pytest.raises(GenerateError):
        generate("blorb", 3)
    with pytest.raises(GenerateError):
        generate("star", 2, 5)
    with pytest.raises(GenerateError):
        generate("cycle", 2)
    with pytest.raises(GenerateError):
        generate("complete")


def test_build_validation():
    with pytest.raises(LooseGraphError):
        LooseGraph.build(["a"], [("a", "a")])
    with pytest.raises(LooseGraphError):
        LooseGraph.build(["a"], [("a", "b")])
    with pytest.raises(LooseGraphError):
        LooseGraph.build(["a", "a"])
    with pytest.raises(LooseGraphError):
        LooseGraph.build(["a", "b"], [("a", "b"), ("b", "a")])


def test_reduce():
    a2 = generate("affine", 2)
    reduced, corr = reduce(a2)
    assert reduced.n_vertices == 1 and reduced.is_reduced()
    assert corr == L**2 - 1
    k4 = generate("complete", 4)
    same, zero = reduce(k4)
    assert same.edge_set() == k4.edge_set() and zero == Poly.zero()
    s21 = generate("star", 2, 1)  # center, one endpoint, one loose edge
    reduced, corr = reduce(s21)
    assert reduced.n_edges == 1
    assert corr == L**2 - L
    free_one = LooseGraph.build((), (), (), 1)
    _, corr = reduce(free_one)
    assert corr == L - 1


def test_resolve():
    p1 = parse("edge a b\n")
    r = resolve(p1, ("a", "b"))
    assert r.n_edges == 0 and dict(r.loose) == {"a": 1, "b": 1}
    tri = generate("cycle", 3)
    b = resolve(tri, ("v1", "v2"))
    assert b.n_edges == 2 and dict(b.loose) == {"v1": 1, "v2": 1}
    with pytest.raises(LooseGraphError):
        resolve(p1, ("a", "c"))
    with pytest.raises(LooseGraphError):
        resolve(r, ("a", "b"))  # already resolved, no such 2-vertex edge


def test_resolve_preserves_degrees():
    rng = Random(5)
    for _ in range(25):
        g = random_loose_graph(rng)
        if not g.edges:
            continue
        e = g.edges[rng.randrange(g.n_edges)]
        r = resolve(g, e)
        for v in g.vertices:
            assert r.degree(v) == g.degree(v)


def test_spanning_tree():
    k5 = generate("complete", 5)
    tree, fundamental = spanning_tree(k5)
    assert len(fundamental) == 6
    assert tree.n_edges == k5.n_vertices - 1
    assert set(fundamental) | tree.edge_set() == k5.edge_set()
    t = generate("path", 4)
    _, fund = spanning_tree(t)
    assert fund == ()
    cyc = generate("cycle", 4)
    _, fund = spanning_tree(cyc)
    assert len(fund) == 1
    with pytest.raises(LooseGraphError):
        spanning_tree(LooseGraph.build(["a", "b"]))
    with pytest.raises(LooseGraphError):
        spanning_tree(LooseGraph.build())


def test_spanning_tree_keeps_loose_edges():
    g = parse("edge a b\nedge b c\nedge c a\nloose a\nloose a\n")
    tree, fundamental = spanning_tree(g)
    assert dict(tree.loose) == {"a": 2}
    assert len(fundamental) == 1


def test_components():
    two_triangles = parse("edge a b\nedge b c\nedge c a\nedge x y\nedge y z\nedge z x\n")
    assert len(connected_components(two_triangles)) == 2
    mixed = LooseGraph.build(["a"], (), (), 1)
    comps = connected_components(mixed)
    assert len(comps) == 2
    assert any(c.free == 1 and not c.vertices for c in comps)
    assert len(connected_components(generate("complete", 5))) == 1
    assert is_connected(generate("complete", 5))


def test_is_loose_tree():
    assert is_loose_tree(generate("star", 4, 2))
    assert is_loose_tree(generate("affine", 3))
    assert not is_loose_tree(generate("cycle", 3))
    assert not is_loose_tree(LooseGraph.build(["a", "b"]))  # disconnected
    assert not is_loose_tree(LooseGraph.build((), (), (), 1))


def test_tree_profile():
    p1 = parse("edge a b\n")
    prof = tree_profile(p1)
    assert prof.degree_counts == () and prof.inner_minus_one == -1 and prof.endpoints == 2
    s42 = generate("star", 4, 2)
    prof = tree_profile(s42)
    assert prof.degree_counts == ((4, 1),) and prof.inner_minus_one == 0 and prof.endpoints == 2


def test_cone():
    k3 = cone(parse("edge a b\n"), LooseGraph.build(["z"]))
    assert k3.edge_set() == generate("complete", 3).edge_set() or k3.n_edges == 3
    k4 = cone(parse("edge a b\n"), parse("edge c d\n"))
    assert k4.n_edges == 6 and k4.n_vertices == 4
    a2 = generate("affine", 2)
    other = LooseGraph.build(["q"], (), {"q": 2})
    t = cone(a2, other)
    assert is_loose_tree(t)
    assert sorted(t.degree(v) for v in t.vertices) == [3, 3]
    with pytest.raises(LooseGraphError):
        cone(a2, a2)


def test_neighborhood_gamma_uvm():
    m = 3
    g = parse(
        "edge u v\nedge u w1\nedge v w1\nedge u w2\nedge v w2\nedge u w3\nedge v w3\n"
    )
    nd = neighborhood(g, ("u", "v"))
    assert nd.g.n_vertices == 3 and nd.g.n_edges == 0
    assert nd.gl.n_edges == 0 and not nd.gl.loose
    # the xy-cone is the original loose graph again
    cone_gl_xy = cone(nd.gl, LooseGraph.build(["u", "v"], [("u", "v")]))
    assert cone_gl_xy.n_vertices == m + 2 and cone_gl_xy.n_edges == 2 * m + 1
    assert len(nd.components) == m


def test_neighborhood_on_components_remark():
    g = parse(
        "edge x y\nedge x u\nedge x v\nedge y u\nedge y v\nedge y w\nedge w u\nedge w v\n"
    )
    nd = neighborhood(g, ("x", "y"))
    assert nd.gl.vertex_set() == {"u", "v"}
    assert nd.gl.n_edges == 0
    assert dict(nd.gl.loose) == {"u": 1, "v": 1}
    assert nd.components == (("u",), ("v",))
    # the loose edges point at w, recorded in the charts
    assert dict(nd.charts_gl) == {"u": frozenset({"w"}), "v": frozenset({"w"})}
    # only y sees w, so the x-side loses those edges
    assert dict(nd.charts_glx) == {"u": frozenset(), "v": frozenset()}


def test_neighborhood_k4():
    nd = neighborhood(generate("complete", 4), ("v1", "v2"))
    assert nd.g.n_vertices == 2 and nd.g.n_edges == 1
    assert nd.gl.n_edges == 1 and not nd.gl.loose


def test_neighborhood_requires_reduced_and_edge():
    with pytest.raises(LooseGraphError):
        neighborhood(generate("star", 2, 1), ("v0", "v1"))
    with pytest.raises(LooseGraphError):
        neighborhood(generate("complete", 3), ("v1", "v9"))


def test_neighborhood_g_is_subgraph_of_views():
    rng = Random(23)
    checked = 0
    while checked < 20:
        g = random_loose_graph(rng)
        g = reduce(g)[0]
        if not g.edges:
            continue
        e = g.edges[rng.randrange(g.n_edges)]
        nd = neighborhood(g, e)
        assert nd.g.edge_set() == induced(g, nd.g.vertices).edge_set()
        for view in (nd.gl, nd.glx, nd.gly):
            assert view.vertex_set() == nd.g.vertex_set()
            assert nd.g.edge_set() <= view.edge_set()
        checked += 1


def test_induced_and_ambient():
    g = parse("edge a b\nedge b c\nloose c\nfree\n")
    sub = induced(g, ["b", "c"])
    assert sub.edge_set() == {("b", "c")} and dict(sub.loose) == {"c": 1}
    # 3 vertices + 1 loose phantom + 2 free phantoms
    assert len(ambient_coordinates(g)) == 6
