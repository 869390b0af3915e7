"""Trees, forests and level diagrams as tuples.

The checked constructors raise the texts the frozen dataclasses raised, in
the same order.  Every record the library derives from valid ones without
checking it (a trusted build) equals its rebuild through the checked
constructors, with the same derived views.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import (
    STAR,
    FinSimplex,
    Forest,
    SimplicialOperator,
    Tree,
    TreeError,
    Vertex,
    as_forest,
    contract_inner,
    cut_at,
    interior,
    omega_obj,
    parse_forest,
    parse_tree,
    restrict,
    retract_witness,
    shuffles,
)
from dendrotensor._rand import random_fin_simplex, random_forest, random_operator, random_tree

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# -- the checked constructors ------------------------------------------------


def test_vertex_constructor_raises_the_dataclass_errors():
    with pytest.raises(TreeError, match="^edge name must be nonempty$"):
        Vertex("", ("a",))
    with pytest.raises(TreeError, match=r"^illegal character ' ' in edge name 'a b'$"):
        Vertex("a b", ())
    with pytest.raises(TreeError, match=r"^illegal character '\[' in edge name 'x\['$"):
        Vertex("r", ("y", "x["))
    with pytest.raises(TreeError, match="^edge name must be nonempty$"):
        Vertex(out_edge="r", in_edges=("a", ""))
    with pytest.raises(TreeError, match="^duplicate input edges at vertex 'r'$"):
        Vertex("r", ("a", "b", "a"))
    # the output is checked first, then the inputs in sorted order, then
    # their distinctness
    with pytest.raises(TreeError, match="^edge name must be nonempty$"):
        Vertex("", ("a;", "a;"))
    with pytest.raises(TreeError, match=r"^illegal character ';' in edge name 'a;'$"):
        Vertex("r", ("b,", "a;", "a;"))
    assert Vertex("r", ["b", "a"]).in_edges == ("a", "b")


def test_tree_constructor_raises_the_dataclass_errors():
    a, b = Vertex("a", ("x",)), Vertex("b", ())
    with pytest.raises(TreeError, match="^edge name must be nonempty$"):
        Tree("", ())
    with pytest.raises(TreeError, match=r"^illegal character '\}' in edge name 'r\}'$"):
        Tree("r}", (Vertex("r", ("a", "a2")), Vertex("r", ("b",))))
    with pytest.raises(TreeError, match="^two vertices share output edge 'r'$"):
        Tree("r", (Vertex("r", ("a",)), Vertex("r", ("b",))))
    with pytest.raises(TreeError, match="^root edge 'r' used as an input$"):
        Tree("r", (Vertex("r", ("a",)), Vertex("a", ("r",))))
    with pytest.raises(TreeError, match="^edge 'x' is an input of two vertices$"):
        Tree("r", (Vertex("r", ("a", "b")), a, Vertex("b", ("x",))))
    with pytest.raises(TreeError, match="^vertex output 'b' is neither the root nor an input$"):
        Tree(root="r", vertices=(Vertex("r", ("a",)), a, b))
    with pytest.raises(TreeError, match="^cycle through edge 'c'$"):
        Tree("r", (Vertex("r", ()), Vertex("c", ("c",))))
    # the vertices are sorted by output, so the first error found is the
    # same whatever order they come in
    for order in ((a, b, Vertex("r", ("a",))), (b, Vertex("r", ("a",)), a)):
        with pytest.raises(TreeError, match="^vertex output 'b' is neither the root nor an input$"):
            Tree("r", order)
    assert Tree("r", [b, Vertex("r", ("b", "a")), a]).vertices == (a, b, Vertex("r", ("a", "b")))


def test_forest_constructor_raises_the_dataclass_error():
    with pytest.raises(TreeError, match=r"^edge names reused across components: \['a', 'r'\]$"):
        Forest((parse_tree("r[a]"), parse_tree("s[b]"), parse_tree("r[a,c]")))
    with pytest.raises(TreeError, match=r"^edge names reused across components: \['b'\]$"):
        Forest(components=(parse_tree("r[a]"), parse_tree("s[b]"), parse_tree("b")))
    assert Forest(()).components == ()


def test_chain_constructors_raise_the_dataclass_errors():
    with pytest.raises(TreeError, match="^a chain needs at least one level$"):
        FinSimplex((), ())
    with pytest.raises(TreeError, match="^need exactly one map per consecutive level pair$"):
        FinSimplex((("1",), ("1",)), ())
    with pytest.raises(TreeError, match="^edge name must be nonempty$"):
        FinSimplex((("1", ""),), ())
    with pytest.raises(TreeError, match=r"^'\*' is reserved for the basepoint$"):
        FinSimplex(levels=(("1", STAR),), maps=())
    with pytest.raises(TreeError, match="^level elements must be distinct$"):
        FinSimplex((("1",), ("2", "2")), ((("1", "2"),),))
    with pytest.raises(TreeError, match="^map 0 is not total on level 0$"):
        FinSimplex((("1", "2"), ("1",)), ((("1", "1"),),))
    with pytest.raises(TreeError, match="^map 0 is not total on level 0$"):
        FinSimplex((("1",), ("1",)), ((("1", "1"), ("1", STAR)),))
    with pytest.raises(TreeError, match="^map 1 sends '2' outside level 2$"):
        FinSimplex((("1",), ("1", "2"), ("1",)), ((("1", STAR),), (("1", "1"), ("2", "2"))))
    # the levels are checked before the maps
    with pytest.raises(TreeError, match="^level elements must be distinct$"):
        FinSimplex((("1",), ("2", "2")), ((("3", "4"),),))
    with pytest.raises(TreeError, match="^operator arity mismatch$"):
        SimplicialOperator(1, 2, (0,))
    with pytest.raises(TreeError, match="^operator arity mismatch$"):
        SimplicialOperator(-1, 0, ())
    with pytest.raises(TreeError, match="^operator is not monotone$"):
        SimplicialOperator(dom=1, cod=2, values=(2, 1))
    with pytest.raises(TreeError, match="^operator values out of range$"):
        SimplicialOperator(1, 2, (1, 3))


def test_trees_and_forests_print_as_their_text():
    # str gives the canonical text; repr stays the record's
    t = parse_tree("r[b[],a[x]]")
    assert str(t) == f"{t}" == "r[a[x],b[]]"
    assert str(parse_forest("{s;r[b,a]}")) == "{s;r[a,b]}" and str(Forest(())) == "{}"
    assert repr(parse_tree("r[]")) == "Tree(root='r', vertices=(Vertex(out_edge='r', in_edges=()),))"


def test_replace_and_make_check_as_the_constructors_do():
    # a namedtuple's _replace and _make build through the checked
    # constructor, so neither makes a record the constructor refuses
    t = parse_tree("r[a]")
    a = FinSimplex((("1",), ("1",)), ((("1", "1"),),))
    records = [Vertex("r", ("a",)), t, as_forest(t), a, SimplicialOperator(1, 1, (0, 1))]
    bad = [
        ("in_edges", ("a", "a"), "^duplicate input edges at vertex 'r'$"),
        ("root", "a b", r"^illegal character ' ' in edge name 'a b'$"),
        ("components", (t, t), r"^edge names reused across components: \['a', 'r'\]$"),
        ("maps", (), "^need exactly one map per consecutive level pair$"),
        ("values", (1, 0), "^operator is not monotone$"),
    ]
    for record, (name, value, error) in zip(records, bad):
        with pytest.raises(TreeError, match=error):
            record._replace(**{name: value})
        with pytest.raises(TreeError, match=error):
            type(record)._make({**record._asdict(), name: value}.values())
    # a good replacement comes out sorted and checked, with its views
    assert Vertex("r", ("a",))._replace(in_edges=("c", "b")) == Vertex("r", ("b", "c"))
    s = t._replace(vertices=(Vertex("r", ("b", "a")), Vertex("b", ())))
    assert s == parse_tree("r[a,b[]]") and s.vertex_above == parse_tree("r[a,b[]]").vertex_above
    assert Tree._make(("r", [Vertex("r", ("a",))])) == t


# -- the trusted builds --------------------------------------------------------


def rebuilt(x):
    """``x`` built again, record by record, through the checked constructors."""
    if isinstance(x, Forest):
        return Forest(tuple(map(rebuilt, x.components)))
    if isinstance(x, FinSimplex):
        return FinSimplex(x.levels, x.maps)
    return Tree(x.root, tuple(Vertex(out, ins) for out, ins in x.vertices))


def assert_trusted(x):
    """``x`` equals its checked rebuild, which does not raise, record for
    record and in every view a reader takes of its trees."""
    y = rebuilt(x)
    assert type(x) is type(y) and x == y
    if isinstance(x, FinSimplex):
        assert x.forest == y.forest and x.edge_names == y.edge_names
        x, y = x.forest, y.forest
    if isinstance(x, Forest):
        assert all(type(t) is Tree for t in x.components)
        assert x.edges == y.edges and x.component_of == y.component_of
        pairs = zip(x.components, y.components)
    else:
        pairs = [(x, y)]
    for t, u in pairs:
        assert all(type(v) is Vertex for v in t.vertices)
        assert t.vertex_above == u.vertex_above
        assert t.edges == u.edges and t.parent == u.parent


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_random_draws_are_their_checked_rebuilds(seed):
    rng = Random(seed)
    prefix = rng.choice(["e", "s", "t0_", "x10", "é"])
    assert_trusted(random_tree(rng, rng.randint(1, 40), rng.random(), prefix=prefix))
    assert_trusted(random_forest(rng, rng.randint(1, 30), rng.random(), min_components=rng.randint(0, 3)))


def test_random_tree_checks_its_prefix_once():
    # the root's name is checked, with the error the root's vertex gave
    with pytest.raises(TreeError, match=r"^illegal character ' ' in edge name 'a b0'$"):
        random_tree(Random(0), 9, prefix="a b")
    with pytest.raises(TreeError, match=r"^illegal character '\[' in edge name '\[0'$"):
        random_tree(Random(0), 1, prefix="[")


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_tree_surgery_gives_checked_rebuilds(seed):
    # up to 24 edges, so that edge e10 sorts before e2 in some draws
    rng = Random(seed)
    t = random_tree(rng, 24, rng.choice([0.0, 0.2, 0.5]))
    assert_trusted(as_forest(t))
    assert as_forest(t).components == (t,)
    assert_trusted(interior(t))
    for e in t.inner_edges:
        for part in cut_at(t, e):
            assert_trusted(part)
    inner = list(t.inner_edges)
    assert_trusted(contract_inner(t, rng.sample(inner, rng.randint(0, len(inner)))))


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_level_forests_give_checked_rebuilds(seed):
    # up to 12 elements a level, so that element 10 sorts before 2 in some
    rng = Random(seed)
    a = random_fin_simplex(rng, 12, 4)
    assert_trusted(omega_obj(a))
    assert_trusted(a)
    phi = random_operator(rng, rng.randint(0, 4), a.n)
    assert_trusted(restrict(a, phi))
    assert_trusted(restrict(a, phi).forest)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_retract_padding_gives_checked_rebuilds(seed):
    rng = Random(seed)
    f = random_forest(rng, 10, rng.choice([0.0, 0.2, 0.5]))
    w = retract_witness(f)
    assert_trusted(w.padded)
    assert_trusted(w.omega)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_shuffles_are_checked_rebuilds(seed):
    # a first factor of up to 14 edges, so that its names sort as text
    rng = Random(seed)
    factors = [random_tree(rng, 14, 0.3, prefix="a")]
    factors += [random_tree(rng, 3, 0.3, prefix=p) for p in ("b", "c")[: rng.randint(0, 2)]]
    for sh in shuffles(factors):
        assert_trusted(sh)


def test_shuffles_of_factors_with_prefix_names_are_checked_rebuilds():
    # "(a1|s)" sorts after "(a10|s)", so a vertex's inputs are sorted again
    # once the states are named
    for other in ("s", "s[t]", "s[t,u[]]"):
        for sh in shuffles([parse_tree("r[a1,a10[x],a2[]]"), parse_tree(other)]):
            assert_trusted(sh)
