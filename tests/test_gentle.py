from itertools import (chain, combinations, combinations_with_replacement,
                       product)

import pytest
from hypothesis import assume, given, settings, strategies as st

from gentlegp import (Arrow, BasisTooLargeError, NotGentleError,
                      QuiverError, QuiverPresentation, algebra_presentation,
                      critical_cycles, gentle_violations,
                      parse_presentation, parse_triangulation,
                      radical_summand_word, validate_gentle)
from gentlegp.families import (cyclic_nakayama, linear_quiver,
                               projective_line_chain)
from gentlegp.strings import radical_summand_string

import reference
from conftest import DATA
from reference import path_basis


def test_eight_vertex_is_gentle(eightv):
    assert gentle_violations(eightv.presentation) == []


def test_loop_without_relation_is_infinite_dimensional():
    p = parse_presentation("vertices: 1\narrows: l: 1 -> 1\nrelations:")
    violations = gentle_violations(p)
    assert [v.axiom for v in violations] == ["infinite-dimensional"]
    assert "l" in violations[0].witness
    with pytest.raises(NotGentleError):
        validate_gentle(p)


def test_three_outgoing_arrows_violate_g1():
    p = parse_presentation(
        "vertices: 0, 1, 2, 3\n"
        "arrows: x: 0 -> 1; y: 0 -> 2; z: 0 -> 3\nrelations:")
    axioms = {v.axiom for v in gentle_violations(p)}
    assert "G1" in axioms
    witnesses = [v.witness for v in gentle_violations(p) if v.axiom == "G1"]
    assert ("0",) in witnesses


def test_g3_violation():
    # two different forbidden continuations of the same arrow
    p = parse_presentation(
        "vertices: 1, 2, 3, 4\n"
        "arrows: a: 1 -> 2; b: 2 -> 3; c: 2 -> 4\nrelations: b*a, c*a")
    axioms = {v.axiom for v in gentle_violations(p)}
    assert "G3" in axioms


def test_g4_violation():
    # two different allowed continuations of the same arrow
    p = parse_presentation(
        "vertices: 1, 2, 3, 4\n"
        "arrows: a: 1 -> 2; b: 2 -> 3; c: 2 -> 4\nrelations:")
    axioms = {v.axiom for v in gentle_violations(p)}
    assert "G4" in axioms


def test_all_violations_reported_together():
    p = parse_presentation(
        "vertices: 1, 2\narrows: x: 1 -> 2; y: 1 -> 2; z: 1 -> 1\nrelations:")
    axioms = {v.axiom for v in gentle_violations(p)}
    assert {"G1", "infinite-dimensional"} <= axioms


def test_dimension_a2(a2):
    assert a2.dimension() == 3  # e_1, e_2, the arrow


def test_dimension_i3(i3):
    assert i3.dimension() == 6  # three lazy paths, three arrows


def test_dimension_eight_vertex_frozen_oracle_value(eightv):
    # frozen from the exhaustive relation-free-path enumeration below
    assert eightv.dimension() == 64


def test_dimension_eight_vertex_against_bfs_oracle(eightv):
    # independent oracle: grow all composable arrow sequences, filter by
    # relation-freeness, count (plus one lazy path per vertex)
    p = eightv.presentation
    amap = p.arrow_map
    total = len(p.vertices)
    frontier = [(a.name,) for a in p.arrows]
    while frontier:
        total += len(frontier)
        nxt = []
        for seq in frontier:
            for a in p.arrows:
                if (a.source == amap[seq[-1]].target
                        and (a.name, seq[-1]) not in p.relations):
                    nxt.append(seq + (a.name,))
        frontier = nxt
    assert total == eightv.dimension() == 64


def test_critical_cycles_eight_vertex(eightv):
    cycles = critical_cycles(eightv)
    assert [(c.arrows, c.length) for c in cycles] == [
        (("e", "f", "j"), 3), (("g", "k", "h"), 3)]
    assert cycles[0].name == "jfe"


def test_no_cycles_without_relations(a2):
    assert critical_cycles(a2) == []


def test_lambda4_has_three_cycles_of_length_two():
    a = validate_gentle(projective_line_chain(4))
    cycles = critical_cycles(a)
    assert [c.length for c in cycles] == [2, 2, 2]


def test_each_arrow_on_at_most_one_cycle(eightv):
    counts = {arr.name: 0 for arr in eightv.arrows}
    for c in critical_cycles(eightv):
        for name in c.arrows:
            counts[name] += 1
    assert all(n <= 1 for n in counts.values())
    cycles = critical_cycles(eightv)
    assert next(c for c in cycles if "e" in c.arrows).arrows == ("e", "f", "j")
    assert next((c for c in cycles if "a" in c.arrows), None) is None


def test_cycles_invariant_under_relabeling(eightv):
    from gentlegp import Arrow, QuiverPresentation

    p = eightv.presentation
    vmap = {v: f"n{v}" for v in p.vertices}
    amap = {a.name: f"z{a.name}" for a in p.arrows}
    q = QuiverPresentation(
        tuple(vmap[v] for v in p.vertices),
        tuple(Arrow(amap[a.name], vmap[a.source], vmap[a.target])
              for a in p.arrows),
        frozenset((amap[b], amap[a]) for b, a in p.relations))
    relabeled = critical_cycles(validate_gentle(q))
    assert sorted(c.length for c in relabeled) == [3, 3]
    stripped = [tuple(name[1:] for name in c.arrows) for c in relabeled]
    assert stripped == [c.arrows for c in critical_cycles(eightv)]


def test_radical_summand_words_eight_vertex(eightv):
    def vertices(arrow):
        return list(radical_summand_string(eightv, arrow).vertices)

    assert vertices("k") == ["8"]
    assert vertices("h") == ["4"]
    assert radical_summand_word(eightv, "j") == ("i", "d", "a", "f", "k")
    assert vertices("j") == ["6", "5", "1", "2", "7", "8"]
    assert vertices("e") == [
        "2", "3", "4", "7", "6", "5", "1", "2", "7", "8"]


def test_basis_paths_partition_into_projectives(eightv):
    sources = [q.source for q in path_basis(eightv)]
    assert sum(map(sources.count, eightv.vertices)) == eightv.dimension()


def test_nakayama_families():
    for n in range(2, 5):
        a = validate_gentle(cyclic_nakayama(n))
        assert a.dimension() == 2 * n
        cycles = critical_cycles(a)
        assert len(cycles) == 1 and cycles[0].length == n


def test_linear_quiver_has_no_relations():
    a = validate_gentle(linear_quiver(4))
    assert a.dimension() == 4 + 3 + 2 + 1
    assert critical_cycles(a) == []


def test_long_linear_quiver_needs_no_recursion():
    assert gentle_violations(linear_quiver(1500)) == []


def test_long_relation_free_cycle_is_reported_whole():
    n = 1500
    vertices = tuple(str(i) for i in range(n))
    arrows = tuple(Arrow(f"a{i}", str(i), str((i + 1) % n)) for i in range(n))
    p = QuiverPresentation(vertices, arrows, frozenset())
    violations = gentle_violations(p)
    assert [v.axiom for v in violations] == ["infinite-dimensional"]
    assert violations[0].witness == tuple(a.name for a in arrows)


def _recursive_cycle(p):
    """Reference: the recursive depth-first search over allowed
    compositions, successors in declaration order."""
    succ = {a.name: [b.name for b in p.arrows if b.source == a.target
                     and (b.name, a.name) not in p.relations]
            for a in p.arrows}
    color = dict.fromkeys(succ, 0)
    path = []

    def dfs(u):
        color[u] = 1
        path.append(u)
        for w in succ[u]:
            if color[w] == 1:
                return tuple(path[path.index(w):])
            if color[w] == 0:
                found = dfs(w)
                if found is not None:
                    return found
        path.pop()
        color[u] = 2
        return None

    for name in succ:
        if color[name] == 0:
            found = dfs(name)
            if found is not None:
                return found
    return None


@st.composite
def small_presentations(draw):
    vertices = tuple(str(i) for i in range(draw(st.integers(1, 4))))
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices),
                                   st.sampled_from(vertices)), max_size=7))
    arrows = tuple(Arrow(f"x{i}", s, t) for i, (s, t) in enumerate(ends))
    composable = [(b.name, a.name) for a in arrows for b in arrows
                  if a.target == b.source]
    relations = draw(st.sets(st.sampled_from(composable))
                     if composable else st.just(set()))
    return QuiverPresentation(vertices, arrows, frozenset(relations))


@st.composite
def gentle_presentations(draw):
    """Presentations that satisfy G1, G3 and G4 by construction: an arrow
    is kept only while its source has fewer than two arrows out and its
    target fewer than two in, and at each vertex the arrows in are paired
    with the arrows out by relations as G3 and G4 force.  Draws that are
    infinite-dimensional are rejected."""
    vertices = tuple(str(i) for i in range(draw(st.integers(1, 6))))
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices),
                                   st.sampled_from(vertices)), max_size=9))
    arrows = []
    for s, t in ends:
        if sum(a.source == s for a in arrows) < 2 and \
                sum(a.target == t for a in arrows) < 2:
            arrows.append(Arrow(f"x{len(arrows)}", s, t))
    relations = set()
    for v in vertices:
        into = [a.name for a in arrows if a.target == v]
        out = [a.name for a in arrows if a.source == v]
        if len(into) == len(out) == 2:
            if draw(st.booleans()):
                out.reverse()
            relations.update(zip(out, into))
        elif len(into) + len(out) == 3:
            relations.add((draw(st.sampled_from(out)),
                           draw(st.sampled_from(into))))
        elif len(into) == len(out) == 1 and draw(st.booleans()):
            relations.add((out[0], into[0]))
    p = QuiverPresentation(vertices, tuple(arrows), frozenset(relations))
    # any other violation reaches validate_gentle in the test and fails it
    assume(not any(v.axiom == "infinite-dimensional"
                   for v in gentle_violations(p)))
    return p


@st.composite
def deep_chains(draw):
    """Linearly oriented A_n for n up to 16, each composition of two
    arrows a relation or not as drawn: gentle, and with every
    composition a relation its injective dimension is n - 1, deeper than
    gentle_presentations reaches."""
    n = draw(st.integers(2, 16))
    p = linear_quiver(n)
    related = draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
    relations = frozenset((f"a{i + 1}", f"a{i}")
                          for i, r in enumerate(related, 1) if r)
    return QuiverPresentation(p.vertices, p.arrows, relations)


@settings(max_examples=200, deadline=None)
@given(small_presentations())
def test_cycle_witness_matches_recursive_search(p):
    witnesses = [v.witness for v in gentle_violations(p)
                 if v.axiom == "infinite-dimensional"]
    expected = _recursive_cycle(p)
    assert witnesses == ([] if expected is None else [expected])


def test_oversized_path_basis_is_an_input_error():
    # A_460 is gentle, but its 106 030 basis paths exceed the cap; only
    # the size check refuses, its dimension is counted without a basis
    a = validate_gentle(linear_quiver(460))
    assert a.dimension() == 106030
    with pytest.raises(BasisTooLargeError) as err:
        a.check_basis_size()
    assert isinstance(err.value, QuiverError)
    assert "100000" in str(err.value)


def _basis_zoo():
    zoo = [parse_presentation(f.read_text())
           for f in sorted(DATA.glob("*.gentle"))
           if f.name != "notgentle.gentle"]
    zoo += [algebra_presentation(parse_triangulation(f.read_text()))
            for f in sorted(DATA.rglob("*.tri"))]
    zoo += [linear_quiver(n) for n in range(1, 13)]
    zoo += [projective_line_chain(n) for n in range(2, 13)]
    zoo += [cyclic_nakayama(n) for n in range(1, 9)]
    return zoo


def _check_dimension(a):
    assert a.dimension() == len(path_basis(a))


def _check_radical_summand_words(a):
    # the word is the longest basis path that begins with the arrow, less
    # the arrow itself
    basis = path_basis(a)
    for arrow in a.arrows:
        longest = max((q for q in basis if q.arrows[:1] == (arrow.name,)),
                      key=len)
        assert radical_summand_word(a, arrow.name) == longest.arrows[1:]


@pytest.mark.parametrize("p", _basis_zoo())
def test_dimension_counts_the_path_basis(p):
    _check_dimension(validate_gentle(p))


def test_radical_summand_word_follows_the_allowed_continuations(eightv):
    _check_radical_summand_words(eightv)


@settings(max_examples=150, deadline=None)
@given(gentle_presentations())
def test_generated_gentle_algebras_pass_the_thread_checks(p):
    # and critical_cycles agrees with the exhaustive search, which does
    # not rely on G3
    a = validate_gentle(p)
    _check_dimension(a)
    _check_radical_summand_words(a)
    assert [c.arrows for c in critical_cycles(a)] == \
        reference.critical_cycles(a)


def small_enumeration():
    """Every presentation on 1 to 3 vertices with at most 3 arrows, named
    a, b, c in order and drawn as a multiset of (source, target) pairs,
    with every set of composable pairs as relations."""
    for n in range(1, 4):
        vertices = tuple(str(i) for i in range(1, n + 1))
        for k in range(4):
            for ends in combinations_with_replacement(
                    list(product(vertices, vertices)), k):
                arrows = tuple(Arrow(name, s, t)
                               for name, (s, t) in zip("abc", ends))
                composable = [(b.name, a.name) for a in arrows
                              for b in arrows if a.target == b.source]
                for relations in chain.from_iterable(
                        combinations(composable, r)
                        for r in range(len(composable) + 1)):
                    yield QuiverPresentation(vertices, arrows,
                                             frozenset(relations))


def _check_against_reference(p):
    """gentle_violations, validate_gentle, the continuations and the
    dimension agree with the arrow-by-arrow reference; True when p is
    gentle."""
    expected = reference.gentle_violations(p)
    assert gentle_violations(p) == expected
    try:
        a = validate_gentle(p)
    except NotGentleError as exc:
        assert exc.violations == expected != []
        return False
    assert expected == []
    assert a.continuation == reference.continuation(p)
    assert a.dimension() == len(path_basis(a))
    return True


def test_every_small_presentation_validates_as_the_reference_does():
    # larger algebras are covered by the draws below only
    gentle = [_check_against_reference(p) for p in small_enumeration()]
    assert (len(gentle), sum(gentle)) == (5961, 269)


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_presentations(), gentle_presentations()))
def test_drawn_presentations_validate_as_the_reference_does(p):
    _check_against_reference(p)
