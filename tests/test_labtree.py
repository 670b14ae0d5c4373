"""Pivotal-tree validation, labels, comparison maps, counting axioms."""

from __future__ import annotations

import json
from typing import Optional, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numerosity import labtree
from numerosity.labtree import (
    EMPTY,
    Elem,
    NotABijection,
    PivotalTree,
    Report,
    _closure,
    _one_step_under,
    check_comparison_map,
    check_instance,
    check_counting_axioms,
    counterexample_missing_membership,
    counterexample_noninjective,
    counterexample_unreachable,
    format_elem,
    format_instance,
    generate_set_pairs,
    label,
    label_family,
    parse_elem,
    parse_instance,
    preserves_labels,
    stable_count,
    standard_instance,
    preserves_relative_labels,
    validate_labeltree,
    validate_pivotal,
    UnknownElement,
    _cone,
    _stable_vertex,
    elem_key,
    format_elems,
)
from numerosity.ordinals import BudgetExceeded

TREE = standard_instance()
S = {a: frozenset([a]) for a in range(6)}
P45 = frozenset([4, 5])
S44 = frozenset([S[4]])
TOP = TREE.universe[-1]


class TestElements:
    def test_parse_format_roundtrip(self):
        for text in ["3", "{}", "{1,2}", "{{4},{4,5}}", "{0,{0},{1,2}}"]:
            assert format_elem(parse_elem(text)) == text

    def test_nested(self):
        assert parse_elem("{{4},{4,5}}") == frozenset([S[4], P45])


class TestStandardInstance:
    def test_pivotal_ok_both_modes(self):
        for mode in ("literal", "hereditary"):
            rep = validate_pivotal(TREE, mode)
            assert rep.ok, rep.violations

    def test_labeltree_ok(self):
        rep = validate_labeltree(TREE)
        assert rep.ok, rep.violations
        assert rep.details["pair_label_instances"] >= 2
        assert rep.details["kuratowski_instances"] >= 1

    def test_verbatim_labels(self):
        assert label(TREE, 3) == frozenset([3, EMPTY])
        want = frozenset([frozenset([1, 2]), S[1], S[2], 1, 2, EMPTY])
        assert label(TREE, frozenset([1, 2])) == want

    def test_label_idempotence_by_closure(self):
        for a in TREE.universe:
            lam = label(TREE, a)
            assert frozenset().union(*(label(TREE, x) for x in lam)) == lam

    def test_unknown_element(self):
        with pytest.raises(UnknownElement) as info:
            label(TREE, 99)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == "99"  # unquoted, unlike a KeyError's message

    def test_stable_counts_are_cardinalities(self):
        for A in [frozenset(), frozenset([1]), frozenset([0, 3, S[2]]), frozenset(TREE.universe)]:
            assert stable_count(TREE, A) == len(A)

    def test_report_json_shape(self):
        data = json.loads(validate_pivotal(TREE).to_json())
        assert data["check"] == "pivotal"
        assert data["status"] == "ok"
        assert data["witnesses"] == []


class TestCounterexamples:
    def test_noninjective_rejected(self):
        rep = validate_pivotal(counterexample_noninjective())
        assert not rep.ok
        assert {v["rule"] for v in rep.violations} == {"successor-injective"}

    def test_unreachable_rejected(self):
        rep = validate_pivotal(counterexample_unreachable())
        assert not rep.ok
        assert {v["rule"] for v in rep.violations} == {"successor-reach"}

    def test_missing_membership_rejected(self):
        rep = validate_pivotal(counterexample_missing_membership())
        assert not rep.ok
        assert {v["rule"] for v in rep.violations} == {"membership-order"}

    def test_labeltree_propagates_pivotal_failure(self):
        rep = validate_labeltree(counterexample_noninjective())
        assert not rep.ok


class TestComparisonMaps:
    def test_identity(self):
        A = frozenset([1, 2, S[3]])
        assert check_comparison_map(TREE, A, A, {x: x for x in A})

    def test_label_preserving_block_swap(self):
        phi = {S44: P45}
        assert preserves_labels(TREE, phi)
        assert check_comparison_map(TREE, frozenset([S44]), frozenset([P45]), phi)

    def test_relative_label_preservation(self):
        A = frozenset([1, S[1]])
        B = frozenset([2, S[2]])
        phi = {1: 2, S[1]: S[2]}
        assert preserves_relative_labels(TREE, A, B, phi)
        assert check_comparison_map(TREE, A, B, phi)

    def test_early_to_late_fails_at_separating_cone(self):
        phi = {3: TOP}
        assert not check_comparison_map(
            TREE, frozenset([3]), frozenset([TOP]), phi, vertex=label(TREE, 3)
        )

    def test_no_label_holds_both_sides(self):
        # 1 and 2 have no common upper bound, so no label holds {1, 2}.
        tree = parse_instance("elem {} 1 2 {1}\nle 1 {1}\nsucc 1 {1}\n")
        assert not check_comparison_map(tree, frozenset([2]), frozenset([1]), {2: 1})
        assert check_comparison_map(tree, frozenset([1]), frozenset([EMPTY]), {1: EMPTY})

    def test_not_a_bijection(self):
        with pytest.raises(NotABijection):
            check_comparison_map(TREE, frozenset([1, 2]), frozenset([3]), {1: 3, 2: 3})

    def test_hypotheses_imply_equality(self):
        # Any map satisfying either hypothesis passes the count check.
        for phi, A, B in [
            ({S44: P45}, frozenset([S44]), frozenset([P45])),
            ({1: 2, S[1]: S[2]}, frozenset([1, S[1]]), frozenset([2, S[2]])),
            ({0: 0, 5: 5}, frozenset([0, 5]), frozenset([0, 5])),
        ]:
            if preserves_labels(TREE, phi) or preserves_relative_labels(TREE, A, B, phi):
                assert check_comparison_map(TREE, A, B, phi)


class TestCountingAxioms:
    def test_axioms_hold_on_generated_pairs(self):
        pairs = generate_set_pairs(TREE, 60, seed=42)
        rep = check_counting_axioms(TREE, pairs)
        assert rep.ok, rep.violations
        checked = rep.details["checked"]
        assert checked["null"] >= 50
        assert checked["euclid"] >= 10
        assert checked["unit"] >= 5

    def test_euclid_strictness(self):
        pairs = [(frozenset([1]), frozenset([1, 2, S[1]]))]
        rep = check_counting_axioms(TREE, pairs)
        assert rep.ok, rep.violations


class TestLatticeStructure:
    def test_meet_trichotomy_via_labels(self):
        fam = label_family(TREE)
        empty_label = label(TREE, EMPTY)
        for lam in fam:
            for mu in fam:
                assert lam & mu in (lam, mu, empty_label)

    def test_containment_linearization(self):
        fam = sorted(label_family(TREE), key=len)
        for i, lam in enumerate(fam):
            for j in range(i + 1, len(fam)):
                assert not fam[j] < lam


class TestInstanceFiles:
    def test_roundtrip(self, tmp_path):
        text = format_instance(TREE)
        back = parse_instance(text)
        assert set(back.universe) == set(TREE.universe)
        assert back.le == TREE.le
        assert back.succ == TREE.succ
        rep = validate_pivotal(back)
        assert rep.ok

    def test_bad_directive(self):
        with pytest.raises(ValueError):
            parse_instance("frobnicate 1 2\n")

    def test_counterexample_through_file(self, tmp_path):
        text = format_instance(counterexample_noninjective())
        rep = validate_pivotal(parse_instance(text))
        assert {v["rule"] for v in rep.violations} == {"successor-injective"}


# ---------------------------------------------------------------------------
# Reference: the exhaustive validators over `PivotalTree.below`, kept verbatim
# (apart from names) from before the bitmask rewrite.  Every report of the
# library must match theirs byte for byte.
# ---------------------------------------------------------------------------


def ref_equiv(tree: PivotalTree, a: Elem, b: Elem) -> bool:
    return a == b or (tree.below(a, b) and tree.below(b, a))


def ref_hereditary_under(a: Elem, b: Elem, universe: tuple[Elem, ...]) -> bool:
    """Membership chains through universe elements, or direct inclusion."""
    if _one_step_under(a, b):
        return True
    seen, stack = set(), [a]
    while stack:
        x = stack.pop()
        for y in universe:
            if isinstance(y, frozenset) and x in y and y not in seen:
                if y == b:
                    return True
                seen.add(y)
                stack.append(y)
    return False


def ref_validate_pivotal(tree: PivotalTree, mode: str = "literal") -> Report:
    rep = Report("pivotal")
    U = tree.universe
    uset = set(U)
    if EMPTY not in uset:
        rep.add("bottom", "{}", note="empty set missing from the universe")
        return rep
    for a, b in tree.le:
        if a not in uset or b not in uset:
            rep.add("table", a, b, note="pair outside the universe")
    for x in U:
        if not tree.below(EMPTY, x):
            rep.add("bottom", x, note="empty set not below this element")
        if not tree.below(x, x):
            rep.add("preorder", x, note="missing reflexive pair")
    for a, b in tree.le:
        for c in U:
            if tree.below(b, c) and not tree.below(a, c):
                rep.add("preorder", a, b, c, note="transitivity fails")
    for x in U:
        for y in U:
            if not any(tree.below(x, z) and tree.below(y, z) for z in U):
                rep.add("directed", x, y, note="no common upper bound")

    sm = tree.succ_map()
    if EMPTY in sm:
        rep.add("successor-injective", "{}", note="successor defined on the empty set")
    seen_targets: dict = {}
    for a, b in sm.items():
        if a not in uset or b not in uset:
            rep.add("successor-injective", a, b, note="successor pair outside the universe")
        if b == EMPTY:
            rep.add("successor-injective", a, note="successor maps into the empty set")
        if b in seen_targets:
            rep.add("successor-injective", seen_targets[b], a, b, note="successor not injective")
        seen_targets[b] = a

    under = (
        _one_step_under
        if mode == "literal"
        else lambda a, b: ref_hereditary_under(a, b, U)
    )
    for a in U:
        for b in U:
            if a != b and under(a, b) and not tree.below(a, b):
                rep.add("membership-order", a, b, note="membership/inclusion not reflected")

    for a in U:
        if a == EMPTY:
            continue
        for b in U:
            if not tree.below(a, b) or ref_equiv(tree, a, b):
                continue
            x, reached = a, False
            for _ in range(len(U) + 1):
                if x not in sm:
                    break
                x = sm[x]
                if ref_equiv(tree, x, b):
                    reached = True
                    break
            if not reached:
                rep.add("successor-reach", a, b, note="no successor iterate reaches the class")

    rep.details["finite-downsets"] = "finite universe: all down-sets finite"
    return rep


def ref_lattice_join(fam: list[frozenset], lam: frozenset, mu: frozenset) -> Optional[frozenset]:
    uppers = [s for s in fam if lam | mu <= s]
    if not uppers:
        return None
    out = uppers[0]
    for s in uppers[1:]:
        out = out & s
    return out


def ref_elem_meet(tree: PivotalTree, a: Elem, b: Elem) -> Optional[Elem]:
    down = [x for x in tree.universe if tree.below(x, a) and tree.below(x, b)]
    for c in down:
        if all(tree.below(y, c) for y in down):
            return c
    return None


def ref_elem_join(tree: PivotalTree, a: Elem, b: Elem) -> Optional[Elem]:
    ub = [z for z in tree.universe if tree.below(a, z) and tree.below(b, z)]
    for c in ub:
        if all(tree.below(c, z) for z in ub):
            return c
    return None


def ref_validate_labeltree(tree: PivotalTree, mode: str = "literal") -> Report:
    rep = Report("labeltree")
    pre = ref_validate_pivotal(tree, mode)
    if not pre.ok:
        rep.add("pivotal", "precondition", note="pivotal-tree axioms fail")
        rep.violations.extend(pre.violations)
        return rep

    U = tree.universe
    labels = {a: label(tree, a) for a in U}
    fam = label_family(tree)
    famset = set(fam)

    for lam in fam:
        for mu in fam:
            if lam & mu not in famset:
                rep.add("label-meet-closed", format_elems(lam), format_elems(mu))
            if ref_lattice_join(fam, lam, mu) is None:
                rep.add("label-join-closed", format_elems(lam), format_elems(mu))
            inter = lam & mu
            if inter not in (lam, mu, labels[EMPTY]):
                rep.add("meet-trichotomy", format_elems(lam), format_elems(mu))

    for a, b in tree.le:
        if not labels[a] <= labels[b]:
            rep.add("label-monotone", a, b)

    for a in U:
        closure = frozenset().union(*(labels[x] for x in labels[a]))
        if closure != labels[a]:
            rep.add("label-closure", a, note="label not closed under member labels")

    for a in U:
        for b in U:
            m = ref_elem_meet(tree, a, b)
            if m is None:
                rep.add("label-meet", a, b, note="no greatest common lower bound")
            elif labels[m] != labels[a] & labels[b]:
                rep.add("label-meet", a, b, m)
            j = ref_elem_join(tree, a, b)
            if j is None:
                rep.add("label-join", a, b, note="no least common upper bound")
            else:
                lj = ref_lattice_join(fam, labels[a], labels[b])
                if lj is None or labels[j] != lj:
                    rep.add("label-join", a, b, j)

    uset = set(U)
    pair_labels = kuratowski_labels = 0
    for a in U:
        for b in U:
            if elem_key(a) >= elem_key(b):
                continue
            sa, sb, sab = frozenset([a]), frozenset([b]), frozenset([a, b])
            if sa in uset and sb in uset and sab in uset:
                pair_labels += 1
                want = ref_lattice_join(fam, labels[sa], labels[sb])
                if labels[sab] != want:
                    rep.add("pair-label", a, b)
            ssa, ssb = frozenset([sa]), frozenset([sb])
            kur = frozenset([sa, sab])
            if ssa in uset and ssb in uset and kur in uset:
                kuratowski_labels += 1
                want = ref_lattice_join(fam, labels[ssa], labels[ssb])
                if labels[kur] != want:
                    rep.add("kuratowski-label", a, b)
    rep.details["pair_label_instances"] = pair_labels
    rep.details["kuratowski_instances"] = kuratowski_labels

    order = sorted(fam, key=len)
    for i, lam in enumerate(order):
        for j in range(i):
            if lam < order[j]:
                rep.add("containment-order", format_elems(lam), format_elems(order[j]),
                        note="size order does not extend strict containment")

    index = {lam: i for i, lam in enumerate(order)}
    for lam in fam:
        cur, slices = lam, []
        while True:
            inside = [m for m in fam if m < cur]
            if not inside:
                slices.append(cur)
                break
            nxt = max(inside, key=lambda m: index[m])
            slices.append(cur - nxt)
            cur = nxt
        union = frozenset().union(*slices) if slices else frozenset()
        total = sum(len(s) for s in slices)
        if union != lam or total != len(lam):
            rep.add("slice-partition", format_elems(lam), note="slices do not partition the label")
    return rep


# Atoms, sets of rank 1 and 2 over them, and two elements that only ever
# appear outside the universe.
POOL: list = [EMPTY, 1, 2, 3, 4, frozenset([1]), frozenset([2]), frozenset([1, 2]),
              frozenset([frozenset([1])]), frozenset([frozenset([2])]),
              frozenset([1, frozenset([1])]), frozenset([frozenset([1]), frozenset([1, 2])]),
              frozenset([3, 4])]
OUTSIDE: list = [7, frozenset([8])]
MODES = ("literal", "hereditary")


@st.composite
def arbitrary_trees(draw) -> PivotalTree:
    """Anything a hand-built PivotalTree may hold: repeated elements, pairs
    and successor pairs outside the universe, unclosed tables, partial maps."""
    universe = draw(st.lists(st.sampled_from(POOL), max_size=8))
    if universe and draw(st.booleans()):
        universe.append(draw(st.sampled_from(universe)))  # a repeated element
    if draw(st.integers(0, 5)):
        universe.insert(draw(st.integers(0, len(universe))), EMPTY)
    U = tuple(universe)
    elems = st.sampled_from(list(U) + OUTSIDE) if U else st.sampled_from(OUTSIDE)
    base = set(draw(st.lists(st.tuples(elems, elems), max_size=12)))
    le = _closure(U, base) if draw(st.booleans()) else frozenset(base)
    succ = tuple(draw(st.lists(st.tuples(elems, elems), max_size=6)))
    return PivotalTree(U, le, succ)


@st.composite
def pivotal_trees(draw, rest: Optional[list] = None, block: Sequence = ()) -> PivotalTree:
    """Trees that pass validate_pivotal in both modes, so the label-tree
    identities themselves are checked: {} at the bottom, a top atom, every
    one-step membership plus random extra pairs, closed, and a successor
    thread along a linear extension.  The elements between {} and the top
    are drawn from POOL unless given; the elements of `block` are made
    equivalent."""
    top = 100
    if rest is None:
        rest = draw(st.lists(st.sampled_from(POOL[1:]), unique=True, max_size=9))
    U = (EMPTY, *rest, top)
    base = {(x, y) for x in U for y in U if x != y and _one_step_under(x, y)}
    base |= {(x, top) for x in U} | {(x, y) for x in block for y in block}
    base |= set(draw(st.lists(st.tuples(st.sampled_from(U), st.sampled_from(U)), max_size=6)))
    le = _closure(U, base)
    below = {x: sum(1 for y in U if (y, x) in le) for x in U}
    thread = sorted(U[1:], key=lambda x: (below[x], elem_key(x)))
    return PivotalTree(U, le, tuple(zip(thread, thread[1:])))


def _pair_key(pair: tuple) -> tuple:
    return elem_key(pair[0]), elem_key(pair[1])


@st.composite
def edited_pivotal_trees(draw) -> PivotalTree:
    """A pivotal tree after 0-2 small edits, so that many draws still pass
    the axioms and reach the label-tree identities, and the rest fail them
    narrowly: drop or add one `le` pair, re-point or drop one successor pair,
    or add an `le` or successor pair with one end in OUTSIDE."""
    tree = draw(pivotal_trees())
    U, le, succ = tree.universe, set(tree.le), list(tree.succ)
    elems = st.sampled_from(U)
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(("drop le", "add le", "re-point succ", "drop succ", "outside")))
        if edit == "drop le":
            le.discard(draw(st.sampled_from(sorted(le, key=_pair_key))))
        elif edit == "add le":
            le.add((draw(elems), draw(elems)))
        elif edit == "outside":
            pair = (draw(elems), draw(st.sampled_from(OUTSIDE)))
            pair = pair[::-1] if draw(st.booleans()) else pair
            (le.add if draw(st.booleans()) else succ.append)(pair)
        elif succ:
            i = draw(st.integers(0, len(succ) - 1))
            if edit == "drop succ":
                del succ[i]
            else:
                a, b = succ[i]
                succ[i] = (a, draw(elems)) if draw(st.booleans()) else (draw(elems), b)
    return PivotalTree(U, frozenset(le), tuple(succ))


# Every element the pair-label and Kuratowski rules name for the atoms 1 and 2.
KURATOWSKI = [1, 2, S[1], S[2], frozenset([1, 2]), frozenset([S[1]]), frozenset([S[2]]),
              frozenset([S[1], frozenset([1, 2])])]


@st.composite
def kuratowski_trees(draw) -> PivotalTree:
    """Pivotal trees over KURATOWSKI and a few more elements of POOL, with a
    random block of its sets made equivalent, as `standard_instance` does for
    4 and 5: without a block both rules fail, with one they may pass."""
    more = draw(st.lists(st.sampled_from([x for x in POOL[1:] if x not in KURATOWSKI]),
                         unique=True, max_size=2))
    block = draw(st.lists(st.sampled_from(KURATOWSKI[2:]), unique=True))
    return draw(pivotal_trees(KURATOWSKI + more, block))


def ref_closure(universe, base) -> frozenset:
    """`labtree._closure` before the bit-row closure, kept verbatim (renamed)."""
    pairs = set(base)
    pairs.update((x, x) for x in universe)
    pairs.update((EMPTY, x) for x in universe)
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return frozenset(pairs)


class TestComparisonMapDefaultVertex:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(pivotal_trees(), arbitrary_trees()), st.data())
    def test_default_vertex_answers_as_its_cone_scan(self, tree, data):
        """The default vertex is the first label holding A ∪ φ(A); scanning its
        cone, as a stated vertex is scanned, gives the same answer."""
        elems = sorted(set(tree.universe), key=elem_key)
        A = data.draw(st.frozensets(st.sampled_from(elems), max_size=3)) if elems else frozenset()
        phi = dict(zip(A, data.draw(st.permutations(elems))))
        B = frozenset(phi.values())
        holders = [lam for lam in label_family(tree) if A | B <= lam]
        want = bool(holders) and check_comparison_map(tree, A, B, phi, vertex=holders[0])
        assert check_comparison_map(tree, A, B, phi) == want


class TestClosure:
    @settings(max_examples=300, deadline=None)
    @given(arbitrary_trees())
    def test_matches_pairwise_rescan(self, tree):
        """Universes with repeats or without {}, and pairs leaving them."""
        base = set(tree.le)
        assert _closure(tree.universe, base) == ref_closure(tree.universe, base)

    def test_chain_instance(self):
        text = ("elem {} " + " ".join(map(str, range(1, 80))) + "\n"
                + "".join(f"le {i} {i + 1}\n" for i in range(1, 79)))
        tree = parse_instance(text)
        assert tree.le == ref_closure(tree.universe, {(i, i + 1) for i in range(1, 79)})
        assert len(tree.le) == 80 * 81 // 2


class TestAgainstReference:
    def test_standard_and_counterexamples(self):
        trees = [TREE, counterexample_noninjective(), counterexample_unreachable(),
                 counterexample_missing_membership()]
        for tree in trees:
            for mode in MODES:
                assert validate_pivotal(tree, mode).to_json() == ref_validate_pivotal(tree, mode).to_json()
                assert validate_labeltree(tree, mode).to_json() == ref_validate_labeltree(tree, mode).to_json()

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(arbitrary_trees(), edited_pivotal_trees()))
    def test_arbitrary_instances(self, tree):
        for mode in MODES:
            assert validate_pivotal(tree, mode).to_json() == ref_validate_pivotal(tree, mode).to_json()
            assert validate_labeltree(tree, mode).to_json() == ref_validate_labeltree(tree, mode).to_json()

    @settings(max_examples=200, deadline=None)
    @given(pivotal_trees())
    def test_label_tree_witnesses(self, tree):
        for mode in MODES:
            assert validate_pivotal(tree, mode).ok
            got = validate_labeltree(tree, mode).to_json()
            assert got == ref_validate_labeltree(tree, mode).to_json()


def _labelcheck_reference(tree, mode):
    """`:labelcheck` as the calculator composed it: the label-tree report
    only on a pivotal instance, its validator re-checking the axioms."""
    pivotal = ref_validate_pivotal(tree, mode)
    return [pivotal] + ([ref_validate_labeltree(tree, mode)] if pivotal.ok else [])


@st.composite
def long_walk_trees(draw) -> PivotalTree:
    """Small universes with a successor walk from one of their elements
    through up to ten sources outside them, to an element that may lie above
    it, and a few random successor pairs, which may close cycles: the walks
    of `successor-reach` pass their step cap, in paths and in cycles."""
    U = (EMPTY, *draw(st.lists(st.sampled_from(POOL[1:6]), unique=True, min_size=1, max_size=3)))
    outside = draw(st.permutations(range(20, 30)))[:draw(st.integers(0, 10))]
    nodes = st.sampled_from([*U, *outside])
    walk = [draw(st.sampled_from(U[1:])), *outside, draw(nodes)]
    succ = [*zip(walk, walk[1:]), *draw(st.lists(st.tuples(nodes, nodes), max_size=3))]
    base = {(walk[0], walk[-1]), *draw(st.lists(st.tuples(st.sampled_from(U), nodes), max_size=4))}
    return PivotalTree(U, _closure(U, base), tuple(succ))


# A walk takes at most len(U) + 1 = 4 successor steps here; 2 is the fifth
# iterate of 1 through the sources 7, 8, 9, 10 outside the universe, and the
# fourth without 10.
CAPPED = "elem {} 1 2\nle 1 2\nsucc 1 7\nsucc 7 8\nsucc 8 9\nsucc 9 10\nsucc 10 2\n"
UNCAPPED = "elem {} 1 2\nle 1 2\nsucc 1 7\nsucc 7 8\nsucc 8 9\nsucc 9 2\n"


class TestSuccessorStepCap:
    @pytest.mark.parametrize("text, reach", [(CAPPED, ["1, 2"]), (UNCAPPED, [])],
                             ids=["capped", "uncapped"])
    def test_walk_stops_after_len_universe_plus_one_steps(self, text, reach):
        tree = parse_instance(text)
        for mode in MODES:
            got = validate_pivotal(tree, mode)
            assert got.to_json() == ref_validate_pivotal(tree, mode).to_json()
            assert [v["witness"] for v in got.violations if v["rule"] == "successor-reach"] == reach

    @settings(max_examples=300, deadline=None)
    @given(long_walk_trees())
    def test_long_walks_match_the_reference(self, tree):
        for mode in MODES:
            assert validate_pivotal(tree, mode).to_json() == ref_validate_pivotal(tree, mode).to_json()


def chain_instance(n: int) -> str:
    """{} and 1 .. n-1, each below the next."""
    return ("elem {} " + " ".join(map(str, range(1, n))) + "\n"
            + "".join(f"le {i} {i + 1}\n" for i in range(1, n - 1)))


class TestInstanceBudget:
    def test_chain_at_the_budget_parses(self):
        tree = parse_instance(chain_instance(labtree.MAX_INSTANCE_ELEMENTS))
        assert len(tree.universe) == labtree.MAX_INSTANCE_ELEMENTS

    @pytest.mark.parametrize("text", [
        chain_instance(labtree.MAX_INSTANCE_ELEMENTS + 1),
        # Elements named only by `le` pairs enter the closure too.
        "elem {} 1\n" + "".join(f"le 1 {i}\n" for i in range(2, labtree.MAX_INSTANCE_ELEMENTS + 1)),
    ], ids=["chain", "le-pairs"])
    def test_one_over_the_budget_is_rejected(self, text):
        with pytest.raises(BudgetExceeded, match=(
                f"an instance of {labtree.MAX_INSTANCE_ELEMENTS + 1} elements is over the "
                f"budget MAX_INSTANCE_ELEMENTS = {labtree.MAX_INSTANCE_ELEMENTS}")):
            parse_instance(text)


class TestPairAndKuratowskiLabels:
    """`pair-label` and `kuratowski-label` compare up masks; the reference
    scans the family for the meet of the labels containing both singletons.
    Over 200 examples these trees reach about 360 passing and 150 failing
    pair-label instances, and 130 passing and 270 failing Kuratowski ones."""

    @settings(max_examples=200, deadline=None)
    @given(kuratowski_trees())
    @example(TREE)
    def test_match_the_reference(self, tree):
        for mode in MODES:
            assert validate_pivotal(tree, mode).ok
            got = validate_labeltree(tree, mode).to_json()
            assert got == ref_validate_labeltree(tree, mode).to_json()


class TestCheckInstance:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(arbitrary_trees(), pivotal_trees()))
    def test_reports_match_the_two_validators(self, tree):
        for mode in MODES:
            got = [r.to_json() for r in check_instance(tree, mode)]
            assert got == [r.to_json() for r in _labelcheck_reference(tree, mode)]

    def test_pivotal_axioms_checked_once(self, monkeypatch):
        calls = []
        real = labtree._pivotal
        monkeypatch.setattr(labtree, "_pivotal", lambda *args: calls.append(1) or real(*args))
        assert [r.ok for r in check_instance(TREE)] == [True, True]
        assert [r.ok for r in check_instance(counterexample_noninjective())] == [False]
        assert len(calls) == 2


# The rules `_labeltree` leaves to the proofs in its docstring: the reference
# checks them, and on a tree that passes the pivotal axioms it never fails one.
PROVED_RULES = {"label-join-closed", "label-monotone", "label-closure",
                "containment-order", "slice-partition"}


def _proved_rules_reported(tree: PivotalTree, mode: str) -> set:
    """The proved rules the reference reports; a `label-join` witness that
    names the bound whose label is wrong counts as one of them."""
    out = set()
    for v in ref_validate_labeltree(tree, mode).violations:
        if v["rule"] in PROVED_RULES:
            out.add(v["rule"])
        elif v["rule"] == "label-join" and "note" not in v:
            out.add("label-join-bound")
    return out


class TestProvedLabelRules:
    @settings(max_examples=200, deadline=None)
    @given(pivotal_trees())
    def test_never_fail_on_pivotal_trees(self, tree):
        for mode in MODES:
            assert not _proved_rules_reported(tree, mode)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(arbitrary_trees(), edited_pivotal_trees()))
    def test_never_fail_on_arbitrary_trees_that_pass_the_axioms(self, tree):
        for mode in MODES:
            if validate_pivotal(tree, mode).ok:
                assert not _proved_rules_reported(tree, mode)


# ---------------------------------------------------------------------------
# Reference: `check_counting_axioms` with its union and product loop, kept
# verbatim (renamed) from before that loop became the proof in the docstring.
# ---------------------------------------------------------------------------


def ref_check_counting_axioms(tree: PivotalTree,
                              pairs: list[tuple[frozenset, frozenset]]) -> Report:
    """Null/Union/Product/Unit/Euclid on the finite cone structure."""
    rep = Report("counting-axioms")
    fam = label_family(tree)
    checked = {"null": 0, "union": 0, "product": 0, "unit": 0, "euclid": 0}

    def count_vertex(A: frozenset, B: frozenset) -> Optional[frozenset]:
        return _stable_vertex(fam, lambda lam: len(A & lam) == len(B & lam))

    pool: list[frozenset] = []
    for a, b in pairs:
        pool.extend((a, b))
    for A in pool:
        checked["null"] += 1
        if (stable_count(tree, A) == 0) != (len(A) == 0):
            rep.add("null", format_elems(A))

    equinumerous = []
    stabilized = []
    for A, B in pairs:
        if len(A) == len(B):
            v = count_vertex(A, B)
            if v is None:
                rep.add("comparison", format_elems(A), format_elems(B),
                        note="equal finite sets never stabilize")
            else:
                equinumerous.append((A, B, v))
                stabilized.append(
                    {"a": format_elems(A), "b": format_elems(B),
                     "cone": format_elems(v)}
                )
        if A < B:
            checked["euclid"] += 1
            w = next(iter(B - A))
            vertex = label(tree, w)
            bad = [
                lam for lam in _cone(fam, vertex)
                if not len(A & lam) < len(B & lam)
            ]
            if bad:
                rep.add("euclid", format_elems(A), format_elems(B))

    for i in range(len(equinumerous)):
        for j in range(i + 1, len(equinumerous)):
            A, A2, v1 = equinumerous[i]
            B, B2, v2 = equinumerous[j]
            joint = v1 | v2
            cone = [lam for lam in fam if joint <= lam]
            if not cone:
                continue
            if not (A & B) and not (A2 & B2):
                checked["union"] += 1
                if any(len((A | B) & lam) != len((A2 | B2) & lam) for lam in cone):
                    rep.add("union", format_elems(A), format_elems(B))
            checked["product"] += 1
            # Product counts use the paired-label rule: the count of a product
            # inside a label is the product of the factor counts.
            if any(
                len(A & lam) * len(B & lam) != len(A2 & lam) * len(B2 & lam)
                for lam in cone
            ):
                rep.add("product", format_elems(A), format_elems(B))

    for A, B in pairs[: max(len(pairs) // 2, 1)]:
        for c in list(B)[:1]:
            checked["unit"] += 1
            vertex = label(tree, c)
            if any(
                len(frozenset([c]) & lam) * len(A & lam) != len(A & lam)
                for lam in _cone(fam, vertex)
            ):
                rep.add("unit", format_elem(c), format_elems(A))

    rep.details["checked"] = checked
    rep.details["stabilized"] = stabilized
    return rep


class TestCountingAxiomsAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(arbitrary_trees(), st.integers(0, 40), st.integers(0, 1 << 16))
    @example(PivotalTree((), frozenset(), ()), 12, 0)
    @example(PivotalTree((EMPTY, 1, 1), frozenset(), ()), 12, 0)
    @example(PivotalTree((1, 1, 2), frozenset(), ()), 12, 0)
    def test_union_and_product_never_fail(self, tree, count, seed):
        """Degenerate universes included: empty, or repeating an element."""
        pairs = generate_set_pairs(tree, count, seed)
        want = ref_check_counting_axioms(tree, pairs)
        assert not {v["rule"] for v in want.violations} & {"union", "product"}
        del want.details["checked"]["union"], want.details["checked"]["product"]
        assert check_counting_axioms(tree, pairs).to_json() == want.to_json()

    @settings(max_examples=100, deadline=None)
    @given(arbitrary_trees(), st.integers(0, 40), st.integers(0, 1 << 16))
    def test_repeated_elements_draw_the_pairs_of_the_plain_universe(self, tree, count, seed):
        plain = PivotalTree(tuple(dict.fromkeys(tree.universe)), tree.le, tree.succ)
        assert generate_set_pairs(tree, count, seed) == generate_set_pairs(plain, count, seed)
