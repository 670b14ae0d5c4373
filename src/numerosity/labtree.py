"""Finite laboratory for pivotal trees, label-trees, and the counting axioms.

Universe elements are atoms (ints) and finite sets over them (frozensets,
rank <= 2).  A pivotal tree carries the preorder as an explicit pair table
(instance files and the built-in instances close theirs by Warshall's loop
over bit rows) and a partial injective successor map; validators
exhaustively check the structural axioms and those derived label-lattice
identities the axioms leave open, reporting every violating tuple; the ones
the axioms imply are proved in `_labeltree`'s docstring.  Counting happens
through labels: the count of A inside a label stabilizes on a cone, and the
comparison axioms are verified on those stable counts.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .ordinals import BudgetExceeded
from .parser import parse_elem

Elem = Union[int, frozenset]
EMPTY: frozenset = frozenset()
# Most distinct elements an instance file may name in its universe and `le`
# pairs.  Closing and checking a table costs about n^2 steps: a chain at the
# budget checks through `:labelcheck` in about 0.15-0.2 s (CPython 3.11 on a
# 2-core Xeon).
MAX_INSTANCE_ELEMENTS = 400


class UnknownElement(ValueError):
    pass


class NotABijection(ValueError):
    pass


def elem_key(e: Elem) -> tuple:
    if isinstance(e, int):
        return (0, e, ())
    return (1, len(e), tuple(sorted(elem_key(x) for x in e)))


def format_elem(e: Elem) -> str:
    if isinstance(e, int):
        return str(e)
    inner = ",".join(format_elem(x) for x in sorted(e, key=elem_key))
    return "{" + inner + "}"


def format_elems(es: Iterable[Elem]) -> str:
    return "{" + ", ".join(format_elem(e) for e in sorted(es, key=elem_key)) + "}"


class PivotalTree(namedtuple("PivotalTree", "universe le succ")):
    """Universe (a tuple of elements) + preorder table (a frozenset of pairs
    (a, b), a below b) + partial injective successor map (a tuple of pairs)."""

    __slots__ = ()

    def succ_map(self) -> dict:
        return dict(self.succ)

    def below(self, a: Elem, b: Elem) -> bool:
        return (a, b) in self.le


class Report:
    __slots__ = ("check", "violations", "details")

    def __init__(self, check: str):
        self.check, self.violations, self.details = check, [], {}

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, *witness: Elem, note: str = "") -> None:
        w = ", ".join(format_elem(x) if not isinstance(x, str) else x for x in witness)
        self.violations.append({"rule": rule, "witness": w, **({"note": note} if note else {})})

    def to_json(self) -> str:
        return json.dumps(
            {
                "check": self.check,
                "status": "ok" if self.ok else "violations",
                "witnesses": self.violations,
                **({"details": self.details} if self.details else {}),
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# Pivotal-tree axioms
# ---------------------------------------------------------------------------


def _one_step_under(a: Elem, b: Elem) -> bool:
    if not isinstance(b, frozenset):
        return False
    if a in b:
        return True
    return isinstance(a, frozenset) and a <= b


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _masks(tree: PivotalTree) -> tuple[dict, dict, dict]:
    """The preorder table as bitmasks over universe positions, keyed by element.

    Bit i of `at[x]` is set when U[i] is x; a hand-built universe may repeat an
    element, and then x owns every such position.  `up[x]` has the positions
    of the elements x lies below, `down[x]` those of the elements below x.
    Every universe element has an entry, and an element outside the universe
    has one when some pair links it to the universe.  So for b in the universe
    `(a, b) in tree.le` is a bit of `up.get(a, 0)`, and for a in the universe
    a bit of `down.get(b, 0)`.
    """
    at: dict = {}
    for i, x in enumerate(tree.universe):
        at[x] = at.get(x, 0) | 1 << i
    up, down = dict.fromkeys(at, 0), dict.fromkeys(at, 0)
    for a, b in tree.le:
        if b in at:
            up[a] = up.get(a, 0) | at[b]
        if a in at:
            down[b] = down.get(b, 0) | at[a]
    return at, up, down


def _warshall(nodes: Sequence[Elem], rows: dict) -> dict:
    """Close bit rows in place (Warshall 1962): bit k of rows[x] says a step,
    then a chain of steps, leads from x to nodes[k]; nodes share their row."""
    for k, y in enumerate(nodes):
        bit, via = 1 << k, rows[y]
        for x, row in rows.items():
            if row & bit:
                rows[x] = row | via
    return rows


def check_instance(tree: PivotalTree, mode: str = "literal") -> list[Report]:
    """The reports of `:labelcheck`: the pivotal axioms, then the label-tree
    identities only when the axioms hold.  The table is read into masks once."""
    masks = _masks(tree)
    pivotal = _pivotal(tree, mode, masks)
    return [pivotal, _labeltree(tree, masks)] if pivotal.ok else [pivotal]


def validate_pivotal(tree: PivotalTree, mode: str = "literal") -> Report:
    """Exhaustive check of the pivotal-tree axioms; lists every violation."""
    return _pivotal(tree, mode, _masks(tree))


def _pivotal(tree: PivotalTree, mode: str, masks: tuple[dict, dict, dict]) -> Report:
    """Witnesses come in the order of the exhaustive loops over the table and
    the universe; the set bits of a mask are read lowest position first.  The
    rules over pairs of elements are passes over one mask per element."""
    rep = Report("pivotal")
    U = tree.universe
    at, up, down = masks
    if EMPTY not in at:
        rep.add("bottom", "{}", note="empty set missing from the universe")
        return rep
    unclosed = []  # one table pass; transitivity is reported after reflexivity
    for a, b in tree.le:
        if a in at and b in at:
            missing = up[b] & ~up[a]
        else:
            rep.add("table", a, b, note="pair outside the universe")
            missing = up.get(b, 0) & ~up.get(a, 0)
        if missing:
            unclosed.append((a, b, missing))
    full = (1 << len(U)) - 1
    reflexive = 0
    for x, m in at.items():
        reflexive |= m & up[x]
    unbottomed, irreflexive = full & ~up[EMPTY], full & ~reflexive
    for i in _bits(unbottomed | irreflexive):
        if unbottomed >> i & 1:
            rep.add("bottom", U[i], note="empty set not below this element")
        if irreflexive >> i & 1:
            rep.add("preorder", U[i], note="missing reflexive pair")
    for a, b, missing in unclosed:
        for k in _bits(missing):
            rep.add("preorder", a, b, U[k], note="transitivity fails")
    common = full  # the positions above every element
    for x in at:
        common &= up[x]
    if not common:
        down_at = [down[x] for x in U]
        for x in U:
            directed = 0  # the positions below some position above x
            for k in _bits(up[x]):
                directed |= down_at[k]
            for j in _bits(full & ~directed):
                rep.add("directed", x, U[j], note="no common upper bound")

    sm = tree.succ_map()
    if EMPTY in sm:
        rep.add("successor-injective", "{}", note="successor defined on the empty set")
    seen_targets: dict = {}
    for a, b in sm.items():
        if a not in at or b not in at:
            rep.add("successor-injective", a, b, note="successor pair outside the universe")
        if b == EMPTY:
            rep.add("successor-injective", a, note="successor maps into the empty set")
        if b in seen_targets:
            rep.add("successor-injective", seen_targets[b], a, b, note="successor not injective")
        seen_targets[b] = a

    # Literal mode reflects one membership or inclusion step; hereditary mode
    # also every membership chain through the universe.  b is one step above
    # a when b is a set holding a, or a set holding every member of the set a.
    sets, holders = 0, {}  # holders[x]: positions of the sets with member x
    for j, y in enumerate(U):
        if isinstance(y, frozenset):
            sets |= 1 << j
            for x in y:
                holders[x] = holders.get(x, 0) | 1 << j
    reach = {x: holders.get(x, 0) for x in at}
    if mode != "literal":
        _warshall(U, reach)
    for x in at:
        if isinstance(x, frozenset):
            supersets = sets
            for y in x:
                supersets &= holders.get(y, 0)
            reach[x] |= supersets
    for a in U:
        for j in _bits(reach[a] & ~up[a] & ~at[a]):
            rep.add("membership-order", a, U[j], note="membership/inclusion not reflected")

    def equivalent(x: Elem) -> int:
        """Positions equal to x or both below and above it."""
        return at.get(x, 0) | (up.get(x, 0) & down.get(x, 0))

    # A walk from a takes at most len(U) + 1 successor steps.  `reached[x]`
    # has the classes of all the iterates of x, `distinct[x]` how many
    # distinct iterates there are, so a walk with that many steps left from x
    # may take `reached[x]` and stop.  Only a walk through more successor
    # sources than the universe has positions runs out of steps, and then it
    # steps to the end of its budget.
    reached, distinct, cycle = {}, {}, set()
    for a in at:
        path, on_path, x = [], {}, a
        while x in sm and x not in reached and x not in on_path:
            on_path[x] = len(path)
            path.append(x)
            x = sm[x]
        if x in on_path:  # the walk closed a cycle: its nodes share one union
            loop = path[on_path[x]:]
            del path[on_path[x]:]
            union = 0
            for y in loop:
                union |= equivalent(y)
            for y in loop:
                reached[y], distinct[y] = union, len(loop)
            cycle.update(loop)
        for y in reversed(path):
            z = sm[y]
            reached[y] = equivalent(z) | reached.get(z, 0)
            distinct[y] = distinct.get(z, 0) + (z not in cycle)
    for a in U:
        if a == EMPTY:
            continue
        x, seen, steps = a, 0, len(U) + 1
        while steps and x in sm:
            if distinct[x] <= steps:
                seen |= reached[x]
                break
            x = sm[x]
            seen |= equivalent(x)
            steps -= 1
        for j in _bits(up[a] & ~equivalent(a) & ~seen):
            rep.add("successor-reach", a, U[j], note="no successor iterate reaches the class")

    # Finite down-sets cannot fail on a finite universe; recorded for
    # completeness of the report.
    rep.details["finite-downsets"] = "finite universe: all down-sets finite"
    return rep


# ---------------------------------------------------------------------------
# Labels and the label-tree identities
# ---------------------------------------------------------------------------


def label(tree: PivotalTree, a: Elem) -> frozenset:
    """The down-set of a: every element lying below it."""
    if a not in set(tree.universe):
        raise UnknownElement(format_elem(a))
    return frozenset(x for x in tree.universe if tree.below(x, a))


def _family_key(label: Iterable[Elem]) -> tuple:
    """The family's order: by size, then by the sorted element keys."""
    ks = sorted(map(elem_key, label))
    return (len(ks), ks)


def label_family(tree: PivotalTree) -> list[frozenset]:
    return sorted({label(tree, a) for a in tree.universe}, key=_family_key)


def validate_labeltree(tree: PivotalTree, mode: str = "literal") -> Report:
    """Checks the label identities the pivotal axioms leave open (`_labeltree`
    proves the others); on a tree that fails the pivotal axioms, reports
    their violations as a precondition."""
    pre, *checked = check_instance(tree, mode)
    if checked:
        return checked[0]
    rep = Report("labeltree")
    rep.add("pivotal", "precondition", note="pivotal-tree axioms fail")
    rep.violations.extend(pre.violations)
    return rep


def _labeltree(tree: PivotalTree, masks: tuple[dict, dict, dict]) -> Report:
    """The label-tree identities of a tree that passes the pivotal axioms.

    The table is then a reflexive, transitive and directed preorder on the
    universe with no pair outside it, so the label of x is the mask `down[x]`
    (see `_masks`), the family is the set of those masks, and elements with
    one label have one up mask too.  A greatest lower bound of a and b is an
    element whose label is `down[a] & down[b]`, so it exists iff that mask is
    a label.  A least upper bound is an element whose up mask is
    `up[a] & up[b]`; the first such position is the one a witness names.

    Only a pair where neither lies below the other can fail a rule.  If a is
    below b, `down[a] & down[b]` is `down[a]` and `up[a] & up[b]` is `up[b]`:
    the bounds exist, and the two labels meet in one of them.  So the loops
    visit, for each label, only the positions outside `up[a] | down[a]`.  A
    pair of those whose labels meet in the bottom label `down[{}]` fails no
    meet rule either, since that is a label; the pairs that meet above it are
    the ones reported, sorted into `label_family`'s order first.

    The join of the labels of a and b, the meet of the labels containing
    both, is `down[x]` iff `up[x]` is C = `up[a] & up[b]`.  A label `down[z]`
    contains both iff a and b lie below z (reflexivity one way, transitivity
    the other), iff z is in C.  If `up[x]` is C, `down[x]` is one of those
    labels and, by transitivity, inside the others.  If `down[x]` is their
    meet, it holds a and b, so `up[x]` lies inside C; and each z in C has
    `down[z]` holding `down[x]`, so x (reflexivity), so z is in `up[x]`.  So
    `pair-label` and `kuratowski-label` compare up masks.

    Six identities hold on every such table, so no loop checks them:
    - labels are join-closed: directedness gives c above a and b, so C is
      not empty and the labels containing `down[a] | down[b]` have a meet;
    - a least upper bound c of a and b has the join of their labels as its
      label, since `up[c]` is C, so `label-join` reports only a missing one;
    - labels are monotone: a below b puts `down[a]` inside `down[b]`, by
      transitivity;
    - a label is the union of its members' labels: each lies inside it by
      transitivity and holds its member by reflexivity;
    - the size order extends strict containment: every `down` mask is a union
      of whole `at` classes, so a label strictly inside another has fewer
      elements, and the family is sorted by element count first;
    - the slices of a label partition it: peeling the last label strictly
      inside what is left gives parts `cur & ~next` with `next` inside `cur`,
      which telescope, for any family.
    """
    rep = Report("labeltree")
    U = tree.universe
    at, up, down = masks
    first = 0  # each element's lowest position: one bit per element
    for m in at.values():
        first |= m & -m

    def fmt(mask: int) -> str:
        return format_elems(U[k] for k in _bits(mask & first))

    famset = set(down.values())
    full = (1 << len(U)) - 1
    bottom = down[EMPTY]
    down_at = [down[x] for x in U]
    labelled: dict = {}  # the positions each label is the label of
    for j, lam in enumerate(down_at):
        labelled[lam] = labelled.get(lam, 0) | 1 << j
    up_of = {down[x]: up[x] for x in U}
    join_at = {up[x]: x for x in reversed(U)}  # the first position wins
    overlapping = []  # pairs of labels that meet above the bottom label
    no_meet, no_join = dict.fromkeys(famset, 0), dict.fromkeys(famset, 0)
    for lam, above in up_of.items():
        apart = full & ~(above | lam)  # the positions not comparable with lam's
        while apart:
            mu = down_at[(apart & -apart).bit_length() - 1]
            apart &= ~labelled[mu]
            inter = lam & mu
            if inter != bottom:
                overlapping.append((lam, mu))
                if inter not in famset:
                    no_meet[lam] |= labelled[mu]
            if above & up_of[mu] not in join_at:
                no_join[lam] |= labelled[mu]

    order = {lam: _family_key(U[k] for k in _bits(lam & first))
             for pair in overlapping for lam in pair}
    for lam, mu in sorted(overlapping, key=lambda pair: (order[pair[0]], order[pair[1]])):
        if lam & mu not in famset:
            rep.add("label-meet-closed", fmt(lam), fmt(mu))
        rep.add("meet-trichotomy", fmt(lam), fmt(mu))

    for a in U:
        meetless, joinless = no_meet[down[a]], no_join[down[a]]
        for j in _bits(meetless | joinless):
            if meetless >> j & 1:
                rep.add("label-meet", a, U[j], note="no greatest common lower bound")
            if joinless >> j & 1:
                rep.add("label-join", a, U[j], note="no least common upper bound")

    single = [frozenset([x]) for x in U]
    pairs = [i for i, x in enumerate(U)
             if single[i] in at or frozenset([single[i]]) in at]
    keys = {i: elem_key(U[i]) for i in pairs}
    pair_labels = kuratowski_labels = 0
    for i in pairs:
        for j in pairs:
            if keys[i] >= keys[j]:
                continue
            a, b, sa, sb = U[i], U[j], single[i], single[j]
            sab = frozenset([a, b])
            if sa in at and sb in at and sab in at:
                pair_labels += 1
                if up[sab] != up[sa] & up[sb]:
                    rep.add("pair-label", a, b)
            ssa, ssb, kur = frozenset([sa]), frozenset([sb]), frozenset([sa, sab])
            if ssa in at and ssb in at and kur in at:
                kuratowski_labels += 1
                if up[kur] != up[ssa] & up[ssb]:
                    rep.add("kuratowski-label", a, b)
    rep.details["pair_label_instances"] = pair_labels
    rep.details["kuratowski_instances"] = kuratowski_labels
    return rep


# ---------------------------------------------------------------------------
# Comparison maps and counting axioms
# ---------------------------------------------------------------------------


def _cone(fam: list[frozenset], vertex: frozenset) -> list[frozenset]:
    return [lam for lam in fam if vertex <= lam]


def _stable_vertex(fam: list[frozenset],
                   pred: Callable[[frozenset], bool]) -> Optional[frozenset]:
    """Smallest label above which pred holds on the whole cone."""
    for vertex in fam:
        if all(pred(lam) for lam in _cone(fam, vertex)):
            return vertex
    return None


def check_comparison_map(tree: PivotalTree, A: frozenset, B: frozenset,
                         phi: dict, vertex: Optional[frozenset] = None) -> bool:
    """True iff |A ∩ λ| = |φ(A) ∩ λ| for every label at or above the vertex.

    The vertex defaults to the smallest label containing A together with its
    image, the cone on which both sides are fully visible.  With that vertex
    the scan cannot fail: every label λ of its cone contains A and φ(A), so
    |A ∩ λ| = |A| = |φ(A)| = |φ(A) ∩ λ|, φ being a bijection.  So the answer
    is whether some label contains A ∪ φ(A); only a stated vertex is scanned.
    """
    if set(phi.keys()) != set(A) or set(phi.values()) != set(B) or len(set(phi.values())) != len(phi):
        raise NotABijection("phi is not a bijection from A onto B")
    fam = label_family(tree)
    image = frozenset(phi.values())
    if vertex is None:
        support = A | image
        return any(support <= lam for lam in fam)
    return all(len(A & lam) == len(image & lam) for lam in _cone(fam, vertex))


def preserves_labels(tree: PivotalTree, phi: dict) -> bool:
    return all(label(tree, phi[a]) == label(tree, a) for a in phi)


def preserves_relative_labels(tree: PivotalTree, A: frozenset, B: frozenset, phi: dict) -> bool:
    """Relative-label preservation: φ maps the label trace inside A onto the
    image's label trace inside B."""
    return all(
        frozenset(phi[x] for x in label(tree, a) & A) == label(tree, phi[a]) & B
        for a in phi
    )


def stable_count(tree: PivotalTree, A: frozenset) -> int:
    top = max(label_family(tree), key=len, default=EMPTY)
    return len(A & top)


def check_counting_axioms(tree: PivotalTree,
                          pairs: list[tuple[frozenset, frozenset]]) -> Report:
    """Null/Unit/Euclid on the finite cone structure, and the cones on which
    equal finite sets stabilize.  Union and product hold on any table: every
    label of the joint cone lies in the stable cones of both pairs, so there
    disjoint sums and products of equal counts are equal.

    Unit and Euclid are decided without a scan of the cone of a label
    `label(x)`, which holds that label and only labels containing it:
    - Euclid, for A inside B with w in B - A: the count of B exceeds that of
      A inside a label λ by |(B - A) ∩ λ|, so some label of the cone of
      `label(w)` fails it iff the smallest, `label(w)`, misses B - A;
    - Unit: |{c} ∩ λ|·|A ∩ λ| differs from |A ∩ λ| iff c is outside λ and A
      meets λ, which no label of the cone of `label(c)` allows when c lies
      in `label(c)`.
    """
    rep = Report("counting-axioms")
    fam = label_family(tree)
    checked = {"null": 0, "unit": 0, "euclid": 0}

    pool: list[frozenset] = []
    for a, b in pairs:
        pool.extend((a, b))
    top = max(fam, key=len, default=EMPTY)  # the label `stable_count` counts in
    for A in pool:
        checked["null"] += 1
        if (len(A & top) == 0) != (len(A) == 0):
            rep.add("null", format_elems(A))

    stabilized = []
    for A, B in pairs:
        if len(A) == len(B):
            v = _stable_vertex(fam, lambda lam: len(A & lam) == len(B & lam))
            if v is None:
                rep.add("comparison", format_elems(A), format_elems(B),
                        note="equal finite sets never stabilize")
            else:
                stabilized.append(
                    {"a": format_elems(A), "b": format_elems(B),
                     "cone": format_elems(v)}
                )
        if A < B:
            checked["euclid"] += 1
            extra = B - A
            if label(tree, next(iter(extra))).isdisjoint(extra):
                rep.add("euclid", format_elems(A), format_elems(B))

    for A, B in pairs[: max(len(pairs) // 2, 1)]:
        for c in list(B)[:1]:
            checked["unit"] += 1
            vertex = label(tree, c)
            if c not in vertex and any(c not in lam and not A.isdisjoint(lam)
                                       for lam in _cone(fam, vertex)):
                rep.add("unit", format_elem(c), format_elems(A))

    rep.details["checked"] = checked
    rep.details["stabilized"] = stabilized
    return rep


def generate_set_pairs(tree: PivotalTree, count: int, seed: int = 0
                       ) -> list[tuple[frozenset, frozenset]]:
    rng = random.Random(seed)
    elems = [e for e in dict.fromkeys(tree.universe) if e != EMPTY]
    out = []
    for i in range(count):
        size = rng.randint(0, min(5, len(elems)))
        A = frozenset(rng.sample(elems, size))
        kind = i % 3
        if kind == 0 and size < len(elems):
            extra = rng.sample([e for e in elems if e not in A],
                               rng.randint(1, min(3, len(elems) - size)))
            out.append((A, A | frozenset(extra)))
        elif kind == 1:
            B = frozenset(rng.sample(elems, size))
            out.append((A, B))
        else:
            out.append((A, A))
    return out


# ---------------------------------------------------------------------------
# Canonical instance and counterexamples
# ---------------------------------------------------------------------------


def _closure(universe: tuple[Elem, ...], base: set) -> frozenset:
    """The base pairs, each element's reflexive pair and {} below it, closed
    transitively; inserted in that order, then the derived pairs, since the
    frozenset's iteration order (and of `table` witnesses) follows it."""
    pairs = set(base)
    pairs.update(zip(universe, universe))
    pairs.update(zip(repeat(EMPTY), universe))
    nodes = list(dict.fromkeys([*universe, *chain.from_iterable(pairs)]))
    pos = {x: k for k, x in enumerate(nodes)}
    rows = dict.fromkeys(nodes, 0)
    for a, b in pairs:
        rows[a] |= 1 << pos[b]
    given = dict(rows)
    for a, row in _warshall(nodes, rows).items():
        if row != given[a]:  # only the derived pairs are new to the set
            pairs.update([(a, nodes[k]) for k in _bits(row & ~given[a])])
    return frozenset(pairs)


def standard_instance() -> PivotalTree:
    """Rank-<=2 universe over atoms 0..5 with a Kuratowski block on {4,5}.

    Every strict up-set is a chain modulo the declared equivalence block, so
    the successor threading satisfies the reachability axiom, and the label
    identities hold exhaustively.
    """
    atoms = list(range(6))
    singles = {a: frozenset([a]) for a in atoms}
    pair12 = frozenset([1, 2])
    three_n = frozenset([3, singles[3]])  # {3,{3}}
    p45 = frozenset([4, 5])
    s44 = frozenset([singles[4]])
    s55 = frozenset([singles[5]])
    kur45 = frozenset([singles[4], p45])
    top = frozenset(atoms + list(singles.values()) + [pair12, p45])

    order: list[Elem] = (
        [EMPTY]
        + atoms
        + [singles[a] for a in atoms]
        + [pair12, three_n, p45, s44, s55, kur45, top]
    )
    universe = tuple(order)

    base: set = set()
    for x in universe:
        for y in universe:
            if x != y and _one_step_under(x, y):
                base.add((x, y))
    block = [p45, s44, s55, kur45]
    for x in block:
        for y in block:
            base.add((x, y))
    le = _closure(universe, base)

    thread = [e for e in order if e != EMPTY]
    succ = tuple((thread[i], thread[i + 1]) for i in range(len(thread) - 1))
    return PivotalTree(universe, le, succ)


def counterexample_noninjective() -> PivotalTree:
    u = (EMPTY, 1, 2, 3)
    base = {(1, 3), (2, 3)}
    return PivotalTree(u, _closure(u, base), ((1, 3), (2, 3)))


def counterexample_unreachable() -> PivotalTree:
    """Declared 1 == 2 by mutual order, but no successor path realizes it."""
    u = (EMPTY, 1, 2, 3)
    base = {(1, 2), (2, 1), (1, 3), (2, 3)}
    return PivotalTree(u, _closure(u, base), ((1, 3),))


def counterexample_missing_membership() -> PivotalTree:
    s1 = frozenset([1])
    t = frozenset([1, s1])
    u = (EMPTY, 1, s1, t)
    base = {(s1, t), (1, t)}  # 1 below {1} deliberately omitted
    return PivotalTree(u, _closure(u, base), ((1, s1), (s1, t)))


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------


class _Parsed(dict):
    """Element spellings to elements; each spelling is parsed once, on first use."""

    def __missing__(self, word: str) -> Elem:
        self[word] = e = parse_elem(word)
        return e


def parse_instance(text: str) -> PivotalTree:
    """Read an instance file and close its table; one `elem`, `le` or `succ`
    directive per line, `#` starting a comment."""
    universe: list[Elem] = []
    le: set = set()
    succ: list[tuple[Elem, Elem]] = []
    parsed = _Parsed()
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        try:
            word = parts[0]
            if word == "le" and len(parts) == 3:
                le.add((parsed[parts[1]], parsed[parts[2]]))
            elif word == "succ" and len(parts) == 3:
                succ.append((parsed[parts[1]], parsed[parts[2]]))
            elif word == "elem":
                universe.extend([parsed[p] for p in parts[1:]])
            else:
                raise ValueError(f"unknown directive {word!r}")
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    uni = tuple(dict.fromkeys(universe))
    named = len(set(uni).union(chain.from_iterable(le)))
    if named > MAX_INSTANCE_ELEMENTS:
        raise BudgetExceeded(f"an instance of {named} elements is over the budget "
                             f"MAX_INSTANCE_ELEMENTS = {MAX_INSTANCE_ELEMENTS}")
    return PivotalTree(uni, _closure(uni, le), tuple(succ))


def format_instance(tree: PivotalTree) -> str:
    lines = ["# pivotal-tree instance"]
    for e in tree.universe:
        lines.append(f"elem {format_elem(e)}")
    for a, b in sorted(tree.le, key=lambda p: (elem_key(p[0]), elem_key(p[1]))):
        if a != b and a != EMPTY:
            lines.append(f"le {format_elem(a)} {format_elem(b)}")
    for a, b in tree.succ:
        lines.append(f"succ {format_elem(a)} {format_elem(b)}")
    return "\n".join(lines) + "\n"
