"""The unit and symmetry laws of the Boardman–Vogt tensor, on operations.

The paper's equivalence is symmetric monoidal, and the tensor side of it is
``BVTensorOperad``.  Its unit is the bare edge η: η ⊗ S is the free operad
of S with each edge ``s`` renamed ``(e|s)``.  It is symmetric: S ⊗ T and
T ⊗ S have the same operations under the coordinate swap.  Both laws are
checked on every color at every arity, the operations compared as sets, on
random trees with stumps.
"""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from dendrotensor import BVTensorOperad, FreeForestOperad, Operation, Tree, count_shuffles
from dendrotensor._rand import random_tree
from dendrotensor.shuffle import decode, encode

seeds = st.integers(min_value=0, max_value=2**32 - 1)

ETA = Tree("e", ())


def renamed(ops, rename):
    """The operations of ``ops`` with every color renamed."""
    return {Operation(rename(op.output), tuple(map(rename, op.inputs))) for op in ops}


def listed(p, color, arity=None):
    """The operations ``p`` lists at ``color``, of one arity or of all."""
    return {op for _, labels in p.ops_by_output(color, arity) for op in labels}


def arities(p, color):
    return range(max(len(inputs) for inputs, _ in p.ops_by_output(color)) + 2)


@given(seeds, st.sampled_from([0.0, 0.3, 0.6]))
@settings(max_examples=100, deadline=None)
def test_bare_edge_is_the_unit(seed, stump_probability):
    s = random_tree(Random(seed), 8, stump_probability, prefix="s")
    tensor, free = BVTensorOperad([ETA, s]), FreeForestOperad(s)

    def pair(d):
        return encode(("e", d))

    assert set(tensor.colors()) == {pair(d) for d in s.edges}
    for d in s.edges:
        assert listed(tensor, pair(d)) == renamed(listed(free, d), pair)
        for k in arities(free, d):
            assert listed(tensor, pair(d), k) == renamed(listed(free, d, k), pair)
    assert count_shuffles([ETA, s]) == count_shuffles([s, ETA]) == 1


@given(seeds, st.sampled_from([0.0, 0.3, 0.6]))
@settings(max_examples=100, deadline=None)
def test_tensor_is_symmetric(seed, stump_probability):
    rng = Random(seed)
    s = random_tree(rng, 5, stump_probability, prefix="a")
    t = random_tree(rng, 5, stump_probability, prefix="b")
    st_, ts = BVTensorOperad([s, t]), BVTensorOperad([t, s])

    def swap(color):
        return encode(decode(color)[::-1])

    assert {swap(c) for c in st_.colors()} == set(ts.colors())
    for c in st_.colors():
        assert listed(ts, swap(c)) == renamed(listed(st_, c), swap)
        for k in arities(st_, c):
            assert listed(ts, swap(c), k) == renamed(listed(st_, c, k), swap)
    assert count_shuffles([s, t]) == count_shuffles([t, s])
