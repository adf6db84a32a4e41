import pytest
from hypothesis import given, settings, strategies as st

from gentlegp import (Arrow, BasisTooLargeError, NotGentleError,
                      QuiverError, QuiverPresentation, critical_cycles,
                      cycle_of_arrow, gentle_violations, parse_presentation,
                      radical_summand_vertices, radical_summand_word,
                      validate_gentle)
from gentlegp.families import (cyclic_nakayama, linear_quiver,
                               projective_line_chain)


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
    assert cycle_of_arrow(eightv, "e").arrows == ("e", "f", "j")
    assert cycle_of_arrow(eightv, "a") is None


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
    assert radical_summand_vertices(eightv, "k") == ["8"]
    assert radical_summand_vertices(eightv, "h") == ["4"]
    assert radical_summand_word(eightv, "j") == ("i", "d", "a", "f", "k")
    assert radical_summand_vertices(eightv, "j") == ["6", "5", "1", "2", "7", "8"]
    assert radical_summand_vertices(eightv, "e") == [
        "2", "3", "4", "7", "6", "5", "1", "2", "7", "8"]


def test_basis_paths_partition_into_projectives(eightv):
    total = sum(len(eightv.basis_paths_from(v)) for v in eightv.vertices)
    assert total == eightv.dimension()


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


@settings(max_examples=200, deadline=None)
@given(small_presentations())
def test_cycle_witness_matches_recursive_search(p):
    witnesses = [v.witness for v in gentle_violations(p)
                 if v.axiom == "infinite-dimensional"]
    expected = _recursive_cycle(p)
    assert witnesses == ([] if expected is None else [expected])


def test_oversized_path_basis_is_an_input_error():
    # A_460 is gentle, but its 106 030 basis paths exceed the cap
    with pytest.raises(BasisTooLargeError) as err:
        validate_gentle(linear_quiver(460))
    assert isinstance(err.value, QuiverError)
    assert "100000" in str(err.value)
