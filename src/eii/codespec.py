"""Recursive descriptions of multiple-layer EII codes.

A spec is either a LeafSpec -- an [n, n-u, u+1] MDS row code -- or a
NodeSpec built from a strictly nested chain of child specs plus a
multiplicity vector s = (s_0, ..., s_t).  The implicit zero code always
sits at the end of the chain; s_t counts whole-parity blocks assigned to
it.  Derived quantities (length, dimension, minimum distance, the
erasure-correcting capability tree) are computed recursively.
"""

from __future__ import annotations

import ast
import json
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from operator import itemgetter

from .gf import FieldContext, field


class ValidationError(ValueError):
    """A spec violates a structural invariant."""


class NotNestedError(ValidationError):
    pass


class FieldTooSmallError(ValidationError):
    """Block count m must stay below the field size q."""


class NegativeMultiplicityError(ValidationError):
    pass


class DifferentChildrenError(ValidationError):
    """Nesting comparison requires identical child chains."""


class NotTotallyOrderedError(ValidationError):
    """Sibling capabilities cannot be arranged into a nested chain."""


def _integer(value, what: str) -> int:
    """`value` as an int; ValidationError for bools, floats, strings and None."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class LeafSpec:
    """An [n, n-u, u+1] MDS row code; u parity symbols sit at the end."""

    ctx: FieldContext
    n: int
    u: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "leaf length n"))
        object.__setattr__(self, "u", _integer(self.u, "leaf redundancy u"))

    @cached_property
    def _hash(self) -> int:
        # kept on the spec: specs key the package's lru_caches
        return hash((self.ctx, self.n, self.u))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class NodeSpec:
    """An EII code over `children` (strongest-last) with multiplicities `s`.

    len(s) == len(children) + 1; the final entry counts blocks pinned to
    the implicit zero code.
    """

    ctx: FieldContext
    children: tuple
    s: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        object.__setattr__(self, "s", tuple(_integer(x, "multiplicity") for x in self.s))

    @cached_property
    def _hash(self) -> int:
        # kept on the spec: the hash of a deep node walks its whole tree
        return hash((self.ctx, self.children, self.s))

    def __hash__(self):
        return self._hash


CodeSpec = LeafSpec | NodeSpec


def tail_counts(spec: NodeSpec) -> tuple:
    """Tail sums of the multiplicity vector: entry i is s_i + ... + s_t."""
    out = []
    acc = 0
    for x in reversed(spec.s):
        acc += x
        out.append(acc)
    return tuple(reversed(out))


def block_count(spec: NodeSpec) -> int:
    return sum(spec.s)


def spec_lru_cache(fn):
    """An unbounded `lru_cache` of `fn`, a function of one spec, behind the
    type test `validate` starts with: the memo hashes its key, where an
    unhashable non-spec would raise TypeError, and `fn` would read a
    hashable one's missing fields."""
    memo = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def entry(spec):
        if not isinstance(spec, (LeafSpec, NodeSpec)):
            validate(spec)  # raises ValidationError
        return memo(spec)

    entry.cache_info, entry.cache_clear = memo.cache_info, memo.cache_clear
    return entry


@spec_lru_cache
def length(spec: CodeSpec) -> int:
    if isinstance(spec, LeafSpec):
        return spec.n
    return block_count(spec) * length(spec.children[0])


@spec_lru_cache
def dimension(spec: CodeSpec) -> int:
    if isinstance(spec, LeafSpec):
        return spec.n - spec.u
    return sum(si * dimension(ch) for si, ch in zip(spec.s, spec.children))


@spec_lru_cache
def min_distance(spec: CodeSpec) -> int:
    """Minimum Hamming distance; a zero-dimensional code has none.

    For a node this is the minimum of d_j * (tail_{j+1} + 1) over the
    children, skipping terms with tail_{j+1} == m: those arise only from a
    run of zero multiplicities in front of child j, the weighted-sum
    constraints then force every block into child j+1 or deeper, and no
    codeword realizes the skipped weight.
    """
    if isinstance(spec, LeafSpec):
        if spec.u == spec.n:
            raise ValidationError("zero-dimensional code has no minimum distance")
        return spec.u + 1
    return _weakest_term(spec)[0]


def _weakest_term(spec: NodeSpec) -> tuple:
    """(d, j): the least term of `min_distance` and its child, first j on
    ties; the minimum-weight witness is built on child j."""
    m = block_count(spec)
    tails = tail_counts(spec)
    terms = [
        (min_distance(ch) * (tails[j + 1] + 1), j)
        for j, ch in enumerate(spec.children)
        if tails[j + 1] < m
    ]
    if not terms:
        raise ValidationError("zero-dimensional code has no minimum distance")
    return min(terms)


def layer_count(spec: CodeSpec) -> int:
    if not isinstance(spec, (LeafSpec, NodeSpec)):
        validate(spec)  # raises ValidationError
    layers = 1
    while isinstance(spec, NodeSpec) and spec.children:  # a loop: validate counts before it hashes
        spec, layers = spec.children[0], layers + 1
    return layers


def level_count(spec: CodeSpec) -> int:
    """Number of distinct child slots actually used (nonzero s_i, i < t)."""
    validate(spec)
    if isinstance(spec, LeafSpec):
        return 1
    return sum(1 for x in spec.s[:-1] if x != 0)


# -- nesting ----------------------------------------------------------------


def is_nested(a: CodeSpec, b: CodeSpec) -> bool:
    """True when b is a subcode of a (b subset-of a).

    Leaves compare by redundancy over the same length; nodes must share an
    identical child chain, and then containment holds exactly when every
    tail count of a is <= the matching tail count of b.
    """
    if isinstance(a, LeafSpec) and isinstance(b, LeafSpec):
        if a.n != b.n or a.ctx != b.ctx:
            raise DifferentChildrenError("leaf specs differ in length or field")
        return a.u <= b.u
    if isinstance(a, NodeSpec) and isinstance(b, NodeSpec):
        if a.children != b.children or a.ctx != b.ctx:
            raise DifferentChildrenError("nodes are not built over identical children")
        if block_count(a) != block_count(b):
            raise DifferentChildrenError("nodes have different block counts")
        return all(x <= y for x, y in zip(tail_counts(a), tail_counts(b)))
    raise DifferentChildrenError("cannot compare a leaf spec with a node spec")


def _strictly_nested(a: CodeSpec, b: CodeSpec) -> bool:
    return is_nested(a, b) and a != b


# -- validation ---------------------------------------------------------------

# Table 1 codes have at most 4 layers.  The capability rule's arrays, which
# masks and erasure orders share, take one dimension per layer, plus one
# for anetf's batch of trials, and numpy sorts arrays of at most 32
# dimensions.
MAX_LAYERS = 16


def validate(spec: CodeSpec) -> None:
    """Raise a ValidationError subclass when any structural invariant fails.

    Specs share their chains of children, and a design is validated more
    than once, so the checks are memoized per spec.  The layer count comes
    first, from a loop, so that a spec too deep to hash raises it.
    """
    if not isinstance(spec, (LeafSpec, NodeSpec)):
        raise ValidationError(f"spec must be a LeafSpec or NodeSpec, got {type(spec).__name__}")
    if layer_count(spec) > MAX_LAYERS:
        raise ValidationError(f"{layer_count(spec)} layers exceed the limit of {MAX_LAYERS}")
    try:
        _validate(spec)
    except RecursionError:  # a later child nested past the cap
        raise ValidationError("spec nests too deeply") from None


@lru_cache(maxsize=None)
def _validate(spec: CodeSpec) -> None:
    if isinstance(spec, LeafSpec):
        if spec.n < 1:
            raise ValidationError(f"leaf length {spec.n} < 1")
        if not 0 <= spec.u <= spec.n:
            raise ValidationError(f"leaf redundancy u={spec.u} outside 0..{spec.n}")
        if spec.u > 0 and spec.n > spec.ctx.q - 1:
            # the Vandermonde parity check needs n distinct evaluation points
            raise FieldTooSmallError(
                f"row length {spec.n} exceeds order(alpha)={spec.ctx.q - 1} in GF({spec.ctx.q})"
            )
        return
    if len(spec.children) < 1:
        raise ValidationError("node needs at least one child")
    if len(spec.s) != len(spec.children) + 1:
        raise ValidationError(
            f"multiplicity vector has {len(spec.s)} entries for {len(spec.children)} children"
        )
    if any(x < 0 for x in spec.s):
        raise NegativeMultiplicityError(f"negative multiplicity in {spec.s}")
    m = block_count(spec)
    if m < 1:
        raise ValidationError("node has zero blocks")
    if m >= spec.ctx.q:
        raise FieldTooSmallError(f"m={m} blocks needs a field larger than GF({spec.ctx.q})")
    for ch in spec.children:
        validate(ch)
        if ch.ctx != spec.ctx:
            raise ValidationError("child uses a different field context")
        if length(ch) != length(spec.children[0]):  # validated first
            raise ValidationError("children have different lengths")
        if dimension(ch) == 0:
            raise ValidationError("zero-dimensional child; use the final multiplicity instead")
    for a, b in zip(spec.children, spec.children[1:]):
        if not _strictly_nested(a, b):
            raise NotNestedError("children must form a strictly nested chain, strongest last")


# -- capability ----------------------------------------------------------------


def row_length(spec: CodeSpec) -> int:
    """Length of the innermost MDS rows."""
    while isinstance(spec, NodeSpec):
        spec = spec.children[0]
    return spec.n


def _saturate(entry, n):
    if isinstance(entry, int):
        return n
    return tuple(_saturate(e, n) for e in entry)


def _capability_entry(spec: CodeSpec):
    """Capability of `spec` viewed as one block of a parent code."""
    if isinstance(spec, LeafSpec):
        return spec.u
    out = []
    for si, ch in zip(spec.s, spec.children):
        out.extend([_capability_entry(ch)] * si)
    if spec.s[-1]:
        full = _saturate(_capability_entry(spec.children[0]), row_length(spec))
        out.extend([full] * spec.s[-1])
    return tuple(out)


def capability(spec: CodeSpec) -> tuple:
    """Erasure-correcting capability tree.

    Leaves contribute their redundancy u; a node concatenates s_i copies of
    each child's capability, then s_t fully-saturated entries (every leaf
    value equal to the row length) for the zero-code blocks.
    """
    validate(spec)
    if isinstance(spec, LeafSpec):
        return (spec.u,)
    return _capability_entry(spec)


def capability_to_string(tree) -> str:
    """The text of a tree of ints, tuples and lists; ValidationError for
    any other node, bools and dicts included."""
    try:
        return _tree_string(tree)
    except RecursionError:
        raise ValidationError("capability tree nests too deeply") from None


def _tree_string(tree) -> str:
    if type(tree) is int:
        return str(tree)
    if type(tree) is not tuple and type(tree) is not list:
        raise ValidationError(f"not a capability tree node: {type(tree).__name__}")
    return "(" + ",".join(_tree_string(e) for e in tree) + ")"


def parse_capability(text: str):
    """Parse a nested parenthesized capability list, e.g. ``((1,1,2),(1,2,3))``."""
    try:
        value = ast.literal_eval(text.strip())
    except (SyntaxError, ValueError) as exc:
        raise ValidationError(f"cannot parse capability string: {exc}") from None
    return _capability_tree(value)


def _capability_tree(value):
    """A tree of integers, lists and tuples as nested int tuples; a bare
    int is the one-entry tree.  Other entries, bools too, are rejected."""
    value = _tree_entry(value)
    return (value,) if type(value) is int else value


def _tree_entry(v):
    if type(v) is tuple:
        for x in v:
            if type(x) is not int:
                break
        else:
            return v  # a row of plain ints, kept as it is
    if not isinstance(v, (tuple, list)):
        return _integer(v, "capability entry")
    return tuple([x if type(x) is int else _tree_entry(x) for x in v])


# -- capability -> spec ---------------------------------------------------------


def _flatten(entry):
    if type(entry) is int:
        return (entry,)
    out = []
    for e in entry:  # ints inline: this walk is most of rejecting a tree
        if type(e) is int:
            out.append(e)
        else:
            out.extend(_flatten(e))
    return tuple(out)


def _build_chain(ctx: FieldContext, entries: list, n: int) -> list:
    """Build nested specs for the given sorted, distinct capability entries.

    Each distinct sub-entry is flattened once.  Full ones (every leaf value
    n) are zero-code blocks; the rest, in chain order, are built into the
    children that every entry shares, as nesting requires.
    """
    # `entries` hold one tree, or siblings that passed the mixed-shapes check
    # below: all ints, or all tuples of one width
    if all(isinstance(e, int) for e in entries):
        return [LeafSpec(ctx, n, u) for u in entries]
    flats, full = {}, set()  # distinct sub-entries: chain members' flattened rows; full ones
    for e in entries:
        for sub in e:
            if sub not in flats and sub not in full:
                flat = _flatten(sub)
                if flat == (n,) * len(flat):
                    full.add(sub)
                else:
                    flats[sub] = flat
    rows = sorted(flats.items(), key=itemgetter(1))
    for (a, row_a), (b, row_b) in zip(rows, rows[1:]):
        if not all(x <= y for x, y in zip(row_a, row_b)):
            raise NotTotallyOrderedError(
                f"incomparable sibling capabilities {capability_to_string(a)} "
                f"and {capability_to_string(b)}"
            )
    if len({_saturate(sub, 0) for sub in [*flats, *full]}) > 1:
        raise NotTotallyOrderedError("sibling capabilities have mixed shapes")
    subs = [sub for sub, _ in rows]
    children = tuple(_build_chain(ctx, subs, n))
    index = dict.fromkeys(full, len(children)) | {sub: k for k, sub in enumerate(subs)}
    specs = []
    for e in entries:
        s = [0] * (len(children) + 1)
        for sub in e:
            s[index[sub]] += 1
        specs.append(NodeSpec(ctx, children, tuple(s)))
    return specs


def spec_from_capability(ctx: FieldContext, tree, n: int) -> CodeSpec:
    """Inverse of capability(): build a spec whose capability equals `tree`.

    `n` is the innermost row length; it cannot be recovered from the
    capability entries themselves.  A single-entry flat tree such as (22)
    denotes the plain MDS row code [n, n-22].
    """
    try:
        tree = parse_capability(tree) if isinstance(tree, str) else _capability_tree(tree)
        if len(tree) == 1 and isinstance(tree[0], int):
            spec = LeafSpec(ctx, n, tree[0])
        else:
            spec = _build_chain(ctx, [tuple(tree)], n)[0]
        validate(spec)
    except RecursionError:
        raise ValidationError("capability tree nests too deeply") from None
    return spec


# -- JSON schema -----------------------------------------------------------------


def _code_to_dict(spec: CodeSpec) -> dict:
    if isinstance(spec, LeafSpec):
        return {"leaf": {"n": spec.n, "u": spec.u}}
    return {"node": {"s": list(spec.s), "children": [_code_to_dict(c) for c in spec.children]}}


def spec_to_json(spec: CodeSpec) -> str:
    validate(spec)
    return json.dumps({"field": {"w": spec.ctx.w}, "code": _code_to_dict(spec)}, indent=2)


def _entry(d, key: str, kind: type):
    """d[key], checked to be a JSON value of the given type."""
    value = d.get(key) if isinstance(d, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"spec JSON: {key!r} must be a {kind.__name__} in {d!r}")
    return value


def _code_from_dict(ctx: FieldContext, d) -> CodeSpec:
    if isinstance(d, dict) and "leaf" in d:
        leaf = _entry(d, "leaf", dict)
        return LeafSpec(ctx, _entry(leaf, "n", int), _entry(leaf, "u", int))
    if isinstance(d, dict) and "node" in d:
        node = _entry(d, "node", dict)
        children = tuple(_code_from_dict(ctx, c) for c in _entry(node, "children", list))
        s = _entry(node, "s", list)
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in s):
            raise ValidationError(f"spec JSON: 's' must list integers, got {s!r}")
        return NodeSpec(ctx, children, tuple(s))
    raise ValidationError("code object needs a 'leaf' or 'node' key")


def spec_from_json(text: str) -> CodeSpec:
    try:
        doc = json.loads(text)
        w = _entry(_entry(doc, "field", dict), "w", int)
        try:
            ctx = field(w)
        except ValueError as exc:  # w outside the supported degrees
            raise ValidationError(f"spec JSON: {exc}") from None
        spec = _code_from_dict(ctx, _entry(doc, "code", dict))
        validate(spec)
    except RecursionError:
        raise ValidationError("spec JSON nests too deeply") from None
    except (TypeError, json.JSONDecodeError) as exc:  # not a str, or not JSON
        raise ValidationError(f"cannot parse spec JSON: {exc}") from None
    return spec
