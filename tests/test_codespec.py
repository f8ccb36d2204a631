import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eii import anetf, codec, codespec
from eii.codespec import (
    MAX_LAYERS,
    DifferentChildrenError,
    FieldTooSmallError,
    LeafSpec,
    NegativeMultiplicityError,
    NodeSpec,
    NotNestedError,
    NotTotallyOrderedError,
    ValidationError,
    capability,
    capability_to_string,
    dimension,
    is_nested,
    layer_count,
    length,
    level_count,
    min_distance,
    parse_capability,
    spec_from_capability,
    spec_from_json,
    spec_to_json,
    tail_counts,
    validate,
)
from eii.gf import field
from test_codec import ordered_chains

G8 = field(3)
G16 = field(4)
G4 = field(2)

L12 = (LeafSpec(G8, 7, 1), LeafSpec(G8, 7, 2))
L123 = (LeafSpec(G8, 7, 1), LeafSpec(G8, 7, 2), LeafSpec(G8, 7, 3))


def example4_c3():
    c20 = NodeSpec(G8, L123, (2, 1, 0, 0))
    c21 = NodeSpec(G8, L123, (1, 1, 1, 0))
    return NodeSpec(G8, (c20, c21), (1, 3, 0))


def test_validate_example4():
    validate(example4_c3())


def test_validate_m_too_large():
    leaves_16 = (LeafSpec(G8, 7, 1), LeafSpec(G8, 7, 2), LeafSpec(G8, 7, 3))
    with pytest.raises(FieldTooSmallError):
        validate(NodeSpec(G8, leaves_16, (5, 4, 3, 0)))  # m = 12 >= q = 8


def test_block_count_boundary():
    # m = q - 1 blocks fit GF(q): the block evaluation points 1, alpha, ...,
    # alpha^(m-1) stay distinct; m = q does not
    leaf = LeafSpec(G8, 7, 1)
    validate(NodeSpec(G8, (leaf,), (7, 0)))
    validate(NodeSpec(G8, (leaf,), (6, 1)))
    with pytest.raises(FieldTooSmallError):
        validate(NodeSpec(G8, (leaf,), (8, 0)))
    with pytest.raises(FieldTooSmallError):
        validate(NodeSpec(G8, (leaf,), (7, 1)))


def test_validate_wrong_child_order():
    with pytest.raises(NotNestedError):
        validate(NodeSpec(G8, (L12[1], L12[0]), (1, 1, 0)))


def test_validate_negative_multiplicity():
    with pytest.raises(NegativeMultiplicityError):
        validate(NodeSpec(G8, L12, (2, -1, 0)))


def test_validate_leaf_row_length_vs_field():
    # the row parity check needs n distinct evaluation points
    with pytest.raises(FieldTooSmallError):
        validate(LeafSpec(G4, 4, 2))
    validate(LeafSpec(G4, 3, 2))
    validate(LeafSpec(G4, 5, 0))  # whole space carries no Vandermonde rows
    # an all-parity row [n, 0] is encoded through n evaluation points too
    with pytest.raises(FieldTooSmallError):
        validate(LeafSpec(G8, 10, 10))
    validate(LeafSpec(G8, 7, 7))


def test_validate_vector_length():
    with pytest.raises(Exception):
        validate(NodeSpec(G8, L12, (1, 1)))


@pytest.mark.parametrize("n, u", [(7.5, 2), (True, 0), ("7", 2), (None, 2), (7, 2.0), (7, False)])
def test_leaf_fields_must_be_integers(n, u):
    with pytest.raises(ValidationError, match="must be an integer"):
        validate(LeafSpec(G16, n, u))


@pytest.mark.parametrize("s", [(1.7, 1, 0), (True, 1, 0), ("2", 1, 0), (None, 1, 0), (1, 1, 0.0)])
def test_multiplicities_must_be_integers(s):
    with pytest.raises(ValidationError, match="must be an integer"):
        validate(NodeSpec(G16, (LeafSpec(G16, 7, 1), LeafSpec(G16, 7, 2)), s))


def test_numpy_integer_fields_become_ints():
    leaf = LeafSpec(G16, np.int64(7), np.uint8(2))
    node = NodeSpec(G16, (leaf,), np.array([2, 1]))
    assert (type(leaf.n), type(leaf.u)) == (int, int) and leaf == LeafSpec(G16, 7, 2)
    assert all(type(x) is int for x in node.s) and node.s == (2, 1)
    validate(node)
    assert spec_from_json(spec_to_json(node)) == node


def test_tail_counts():
    spec = NodeSpec(G8, (LeafSpec(G8, 7, 1),) , (2, 1))
    assert tail_counts(spec) == (3, 1)


def test_length_dimension_example1():
    # dimension per the k = 25 figure uses redundancies (1, 2, 3, 5)
    leaves = (LeafSpec(G8, 7, 1), LeafSpec(G8, 7, 2), LeafSpec(G8, 7, 3), LeafSpec(G8, 7, 5))
    spec = NodeSpec(G8, leaves, (2, 1, 1, 2, 1))
    assert length(spec) == 49
    assert dimension(spec) == 49 - (2 * 1 + 1 * 2 + 1 * 3 + 2 * 5 + 1 * 7)
    assert dimension(spec) == 25
    assert min_distance(spec) == 12


def test_example4_dimensions():
    spec = example4_c3()
    assert (length(spec), dimension(spec), min_distance(spec)) == (84, 62, 4)


def test_all_data_code():
    spec = NodeSpec(G8, (LeafSpec(G8, 7, 0),), (3, 0))
    assert dimension(spec) == length(spec) == 21


def test_min_distance_leaf():
    assert min_distance(LeafSpec(G8, 7, 2)) == 3
    assert min_distance(LeafSpec(G8, 7, 0)) == 1


def test_min_distance_of_a_zero_dimensional_code_raises():
    # validate keeps zero-dimensional children out of nodes, so only a
    # top-level leaf or node can reach these
    zero_node = NodeSpec(G8, (LeafSpec(G8, 7, 1),), (0, 2))
    for spec in (LeafSpec(G8, 7, 7), LeafSpec(G8, 1, 1), zero_node):
        validate(spec)
        with pytest.raises(ValidationError, match="zero-dimensional code has no minimum distance"):
            min_distance(spec)


def test_min_distance_example5():
    c20 = NodeSpec(G8, L12, (2, 1, 0))
    c21 = NodeSpec(G8, L12, (1, 1, 1))
    spec = NodeSpec(G8, (c20, c21), (3, 1, 0))
    assert min_distance(spec) == 6
    assert (length(spec), dimension(spec)) == (84, 62)


def test_min_distance_skips_leading_zero_multiplicities():
    # with no blocks on the weakest child, the weighted sums force every
    # block into the stronger children and the weak term is unreachable
    c20 = NodeSpec(G8, L123, (2, 1, 0, 0))
    c21 = NodeSpec(G8, L123, (1, 1, 1, 0))
    spec = NodeSpec(G8, (c20, c21), (0, 2, 0))
    assert min_distance(spec) == 4


def test_capability_examples():
    c20 = NodeSpec(G8, L12, (5, 1, 0))
    assert capability(c20) == (1, 1, 1, 1, 1, 2)
    c21b = NodeSpec(G8, L12, (1, 1, 1))
    assert capability(c21b) == (1, 2, 7)
    assert capability(LeafSpec(G8, 7, 2)) == (2,)


def test_capability_nested():
    spec = example4_c3()
    assert capability(spec) == ((1, 1, 2), (1, 2, 3), (1, 2, 3), (1, 2, 3))
    assert capability_to_string(capability(spec)) == "((1,1,2),(1,2,3),(1,2,3),(1,2,3))"


def test_capability_full_erasure_subtree():
    inner = NodeSpec(G8, L12, (2, 1, 0))
    spec = NodeSpec(G8, (inner,), (2, 1))
    assert capability(spec) == ((1, 1, 2), (1, 1, 2), (7, 7, 7))


def _flatten(tree):
    if isinstance(tree, int):
        return [tree]
    out = []
    for entry in tree:
        out.extend(_flatten(entry))
    return out


def test_capability_flat_length_is_row_count():
    from eii.codespec import row_length
    specs = [
        example4_c3(),
        NodeSpec(G8, L12, (1, 1, 1)),
        spec_from_capability(G8, "(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", 7),
        NodeSpec(G8, (NodeSpec(G8, L12, (2, 1, 0)),), (2, 1)),
    ]
    for spec in specs:
        flat = _flatten(capability(spec))
        assert len(flat) == length(spec) // row_length(spec)
        assert all(0 <= v <= row_length(spec) for v in flat)


def test_two_layer_dimension_from_capability():
    # for 2-layer codes the flattened capability entries are exactly the
    # per-row redundancies, so they account for the full dimension deficit
    for s in [(5, 1, 0), (4, 2, 0), (1, 1, 1)]:
        spec = NodeSpec(G8, L12, s)
        flat = _flatten(capability(spec))
        assert dimension(spec) == length(spec) - sum(flat)


def test_is_nested_example3():
    c20 = NodeSpec(G8, L12, (5, 1, 0))
    c21 = NodeSpec(G8, L12, (4, 2, 0))
    assert is_nested(c20, c21)
    assert not is_nested(c21, c20)


def test_is_nested_reflexive():
    spec = example4_c3()
    assert is_nested(spec, spec)
    leaf = LeafSpec(G8, 7, 3)
    assert is_nested(leaf, leaf)


def test_is_nested_different_children():
    a = NodeSpec(G8, L12, (1, 1, 0))
    b = NodeSpec(G8, L123, (1, 1, 0, 0))
    with pytest.raises(DifferentChildrenError):
        is_nested(a, b)
    with pytest.raises(DifferentChildrenError):
        is_nested(a, LeafSpec(G8, 14, 2))
    with pytest.raises(DifferentChildrenError, match="length or field"):
        is_nested(LeafSpec(G8, 7, 1), LeafSpec(G8, 5, 1))
    with pytest.raises(DifferentChildrenError, match="different block counts"):
        is_nested(a, NodeSpec(G8, L12, (2, 1, 0)))


def test_is_nested_partial_order():
    profiles = [(2, 1, 0), (1, 1, 1), (1, 2, 0), (0, 2, 1)]
    specs = [NodeSpec(G8, L12, s) for s in profiles]
    for a, b in itertools.product(specs, specs):
        if is_nested(a, b) and is_nested(b, a):
            assert tail_counts(a) == tail_counts(b)
        for c in specs:
            if is_nested(a, b) and is_nested(b, c):
                assert is_nested(a, c)


def test_is_nested_exhaustive_membership_gf4():
    # s = (2,1,0) contains s = (1,1,1) over the same children; confirm by
    # enumerating every codeword of the smaller code on a tiny field
    from eii.codec import encode, is_codeword
    leaves = (LeafSpec(G4, 3, 1), LeafSpec(G4, 3, 2))
    big = NodeSpec(G4, leaves, (2, 1, 0))
    small = NodeSpec(G4, leaves, (1, 1, 1))
    assert is_nested(big, small)
    k = dimension(small)
    for data in itertools.product(range(4), repeat=k):
        word = encode(small, list(data))
        assert is_codeword(big, word)


def test_spec_from_capability_example4():
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    assert capability(spec) == ((1, 1, 2), (1, 2, 3), (1, 2, 3), (1, 2, 3))
    assert (length(spec), dimension(spec), min_distance(spec)) == (84, 62, 4)


def test_spec_from_capability_leaf():
    spec = spec_from_capability(field(7), "(22)", 84)
    assert isinstance(spec, LeafSpec)
    assert (length(spec), dimension(spec)) == (84, 62)


def test_spec_from_capability_not_totally_ordered():
    with pytest.raises(NotTotallyOrderedError):
        spec_from_capability(G8, "((1,2),(2,1))", 7)


@pytest.mark.parametrize("tree, error, message", [
    ("((0,9),(1,0,0))", NotTotallyOrderedError, "incomparable sibling capabilities (0,9) and (1,0,0)"),
    ("(((0,9),(1,0,0)),((0,9),(1,0,0)))", NotTotallyOrderedError,
     "incomparable sibling capabilities (0,9) and (1,0,0)"),
    ("((7,7),(6,8))", ValidationError, "leaf redundancy u=8 outside 0..7"),
    ("((1,1),(1,1,1))", NotTotallyOrderedError, "sibling capabilities have mixed shapes"),
    # a saturated (all-n) entry is a zero-code block only in its siblings' shape
    ("((1,1),(7,7,7))", NotTotallyOrderedError, "sibling capabilities have mixed shapes"),
    ("((1,1),7)", NotTotallyOrderedError, "sibling capabilities have mixed shapes"),
    ("((1,1,1),(7,7,7,7,7))", NotTotallyOrderedError, "sibling capabilities have mixed shapes"),
])
def test_spec_from_capability_rejects_malformed_trees(tree, error, message):
    with pytest.raises(error) as info:
        spec_from_capability(G8, tree, 7)
    assert str(info.value) == message


@pytest.mark.parametrize("tree", [
    (1.5, 2), ((1, "2"), (1, 3)), (True, 2), [[1, 2], [1, None]], "(True,2)", "((1,2),(1,False))",
])
def test_capability_trees_must_hold_integers(tree):
    with pytest.raises(ValidationError, match="capability entry must be an integer"):
        spec_from_capability(G8, tree, 7)


def one_block_layers(layers: int):
    """A spec of `layers` layers, each node one block over the layer below."""
    spec = LeafSpec(G8, 3, 1)
    for _ in range(layers - 1):
        spec = NodeSpec(G8, (spec,), (1, 0))
    return spec


def test_validate_caps_the_layer_count():
    # the capability rule takes one array dimension per layer, and anetf
    # one more for its trials: every entry point runs at the cap
    spec = one_block_layers(MAX_LAYERS)
    validate(spec)
    assert codec.correctable(spec, [True, False, False])
    assert not codec.correctable(spec, [True, True, False])
    word = codec.encode(spec, [3, 5])
    assert codec.decode(spec, word.with_erasures([1]))[0] == word
    for mode in anetf.MODES:
        assert anetf.simulate(anetf.AnetfConfig(spec, mode, 20, 0)).mean == 2
    for layers in (MAX_LAYERS + 1, 32, 72, 2000):
        with pytest.raises(ValidationError, match=f"{layers} layers exceed the limit"):
            validate(one_block_layers(layers))


def test_validate_rejects_childless_and_overdeep_children():
    childless = NodeSpec(G8, (), (1,))
    for spec in (childless, NodeSpec(G8, (childless,), (1, 0))):
        with pytest.raises(ValidationError, match="node needs at least one child"):
            validate(spec)
    # a later child past the cap cannot be hashed, so it is caught before
    # the memo is asked
    spec = NodeSpec(G8, (LeafSpec(G8, 3, 1), one_block_layers(2000)), (1, 1, 0))
    with pytest.raises(ValidationError, match="spec nests too deeply"):
        validate(spec)


def test_validate_checks_each_spec_once():
    spec = spec_from_capability(G8, "((1,1,2),(1,2,3),(1,2,3),(1,2,3))", 7)
    validate(spec)
    before = codespec._validate.cache_info()
    validate(spec)
    validate(spec_from_capability(G8, capability(spec), 7))
    after = codespec._validate.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


@pytest.mark.parametrize("value", [
    "abc", None, [1], {},
    pytest.param((True, 2), id="bool-node"),  # a bool is an int, but not a tree node
    pytest.param({1: 2}, id="dict-of-ints"),
    pytest.param('{"field": {"w": 9}, "code": {"leaf": {"n": 3, "u": 1}}}', id="json-w9"),
])
@pytest.mark.parametrize("entry", [length, dimension, min_distance, layer_count,
                                   capability_to_string, spec_from_json])
def test_spec_entries_reject_a_value_that_is_not_a_spec(entry, value):
    # a list of ints is a tree node, so capability_to_string prints it as
    # the tuple of them; a dict is not, though it iterates over its keys
    if entry is capability_to_string and type(value) is list:
        assert entry(value) == entry(tuple(value))
        return
    with pytest.raises(ValidationError):
        entry(value)


def test_deep_trees_and_json_raise_validation_errors():
    tree = 0
    for _ in range(3000):
        tree = (tree,)
    with pytest.raises(ValidationError, match="capability tree nests too deeply"):
        spec_from_capability(G8, tree, 7)
    with pytest.raises(ValidationError, match="layers exceed the limit"):
        spec_from_capability(G8, "(" * 100 + "1" + ",)" * 100, 7)
    doc = '{"leaf": {"n": 3, "u": 1}}'
    for _ in range(399):
        doc = '{"node": {"s": [1, 0], "children": [' + doc + ']}}'
    with pytest.raises(ValidationError, match="spec JSON nests too deeply"):
        spec_from_json('{"field": {"w": 3}, "code": ' + doc + '}')


def test_capability_trees_as_lists_or_numpy_integers():
    want = spec_from_capability(G8, "((1,2),(1,3))", 7)
    assert spec_from_capability(G8, [[1, 2], (1, 3)], 7) == want
    assert spec_from_capability(G8, [[np.int64(1), 2], [1, np.uint8(3)]], 7) == want
    assert spec_from_capability(G8, np.int64(3), 7) == spec_from_capability(G8, (3,), 7)


def test_spec_from_capability_round_trip():
    for text, w in [
        ("(1,1,1,1,1,2,2,2,2,3,3,3)", 4),
        ("((1,1,2),(1,1,2),(1,1,2),(1,2,7))", 3),
        ("(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", 3),
        ("(0,0,1,1,1,1,1,1,2,3,4,7)", 4),
        ("((1,1),(7,7))", 3),  # a saturated block is a zero-code block
    ]:
        spec = spec_from_capability(field(w), text, 7)
        assert capability_to_string(capability(spec)) == text


def uses_every_child(chain):
    """Whether each child of a sibling chain is used by some member, at every
    layer; spec_from_capability builds only the children a tree names."""
    head = chain[0]
    if isinstance(head, LeafSpec):
        return True
    used = {i for spec in chain for i, x in enumerate(spec.s[:-1]) if x}
    return len(used) == len(head.children) and uses_every_child(head.children)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_spec_from_capability_inverts_capability(data):
    # the identity holds on every spec that names all its children, except a
    # one-block node over rows, whose flat tree (u,) reads as the row code
    n = data.draw(st.integers(1, 7))
    for spec in data.draw(ordered_chains(data.draw(st.integers(0, 2)), n)):
        tree = capability(spec)
        again = spec_from_capability(G8, tree, n)
        assert capability(again) == tree
        assert spec_from_capability(G8, capability(again), n) == again
        flat = isinstance(spec, NodeSpec) and len(tree) == 1 and isinstance(tree[0], int)
        assert (again == spec) == (uses_every_child((spec,)) and not flat), spec


def test_spec_from_capability_harmonizes_children():
    # sibling sub-codes built over the union of their own children
    spec = spec_from_capability(G8, "(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))", 7)
    a, b = spec.children
    assert a.children == b.children
    validate(spec)


def test_parse_capability():
    assert parse_capability("(22)") == (22,)
    assert parse_capability("((1,1,2),(1,2,3))") == ((1, 1, 2), (1, 2, 3))
    with pytest.raises(Exception):
        parse_capability("((1,2)")


def test_layers_and_levels():
    spec = example4_c3()
    assert layer_count(spec) == 3
    assert level_count(spec) == 2
    assert layer_count(LeafSpec(G8, 7, 2)) == 1
    three_level = NodeSpec(G8, L123, (1, 1, 1, 0))
    assert level_count(three_level) == 3


def test_json_round_trip():
    spec = example4_c3()
    text = spec_to_json(spec)
    again = spec_from_json(text)
    assert again == spec


def test_equal_specs_built_separately_hash_equal():
    # the hash is kept on the spec after its first use; specs built apart,
    # hashed in either order, must still agree and find each other as keys
    cap = "(((1,1,2),(1,2,3)),((1,2,3),(1,2,3)))"
    a = spec_from_capability(G8, cap, 7)
    b = spec_from_capability(G8, cap, 7)
    c = spec_from_json(spec_to_json(a))
    assert a is not b and a == b == c
    assert hash(b) == hash(a) == hash(c) == hash(a)
    assert hash(a) == hash((a.ctx, a.children, a.s))
    assert {a: 1}[c] == 1 and {c: 2}[b] == 2
    leaf = LeafSpec(G8, 7, 2)
    assert hash(leaf) == hash(LeafSpec(G8, 7, 2)) == hash((G8, 7, 2))
    assert a != NodeSpec(G8, a.children, (3, 1, 0))
    assert hash(NodeSpec(G8, a.children, a.s)) == hash(a)


def test_json_leaf():
    doc = '{"field": {"w": 3}, "code": {"leaf": {"n": 7, "u": 2}}}'
    spec = spec_from_json(doc)
    assert spec == LeafSpec(G8, 7, 2)
