from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from gentlegp import (InputError, Letter, enumerate_strings,
                      lazy_word, make_string, parse_letters,
                      parse_presentation, radical_summand_word,
                      string_module, validate_gentle)
from gentlegp.strings import projective_word, radical_summand_string
from gentlegp.families import projective_line_chain

from conftest import DATA, data_path
from reference import (band_module, check_module, check_string,
                       contains_peak, make_band, string_outcome,
                       strings_by_search)
from test_gentle import gentle_presentations


def L(name):
    return Letter(name, True)


def Li(name):
    return Letter(name, False)


def _dense(m):
    """The rows of a Matrix as lists of entries, zeros included."""
    return [[row.get(j, 0) for j in range(m.ncols)]
            for row in m.rows]


def test_parse_letters():
    assert parse_letters("i,d,a,f,k") == tuple(map(L, "idafk"))
    assert parse_letters("a^-1, b") == (Li("a"), L("b"))


def test_radical_summand_walk_is_valid(eightv):
    word = radical_summand_word(eightv, "j")
    assert check_string(eightv, [L(x) for x in word]) == (True, None)
    assert word == ("i", "d", "a", "f", "k")


def _refusal(a, letters):
    """The reference's reason for refusing letters, after checking that
    make_string refuses them with that reason."""
    ok, reason = check_string(a, letters)
    assert not ok
    with pytest.raises(InputError) as err:
        make_string(a, letters)
    assert str(err.value) == f"invalid string word: {reason}"
    return reason


def test_immediate_backtrack_invalid(eightv):
    assert "undoes" in _refusal(eightv, [L("a"), Li("a")])


def test_relation_pair_invalid(eightv):
    # first e then f: fe in I
    assert "relation" in _refusal(eightv, [L("e"), L("f")])


def test_inverse_relation_pair_invalid(eightv):
    assert "reverse a relation" in _refusal(eightv, [Li("f"), Li("e")])


def test_non_walk_invalid(eightv):
    assert "walk" in _refusal(eightv, [L("a"), L("d")])


def test_unknown_arrow_raises(eightv):
    for check in (check_string, make_string):
        with pytest.raises(InputError, match="unknown arrow 'zz'"):
            check(eightv, [L("zz")])


def _agrees_with_the_reference(a):
    # every sequence of at most 3 letters, a letter of no arrow included,
    # gets make_string's word or refusal from the relations themselves
    alphabet = [Letter(arr.name, d) for arr in a.arrows
                for d in (True, False)] + [L("zz")]
    for n in range(4):
        for letters in product(alphabet, repeat=n):
            try:
                got = make_string(a, letters)
            except InputError as err:
                got = type(err), str(err)
            assert got == string_outcome(a, letters), letters
    # the reference lists by length first, so its prefix by length is
    # the shorter enumeration
    expected = strings_by_search(a, 4)
    for n in range(5):
        assert enumerate_strings(a, n) == [w for w in expected
                                           if len(w) <= n]
    assert all(w.inverse().canonical() == w for w in expected)


@settings(max_examples=100, deadline=None)
@given(gentle_presentations())
def test_strings_follow_the_relations_on_generated_algebras(p):
    _agrees_with_the_reference(validate_gentle(p))


@pytest.mark.parametrize("path", sorted((DATA / "loops").glob("*.gentle")),
                         ids=lambda path: path.name)
def test_strings_follow_the_relations_on_loops(path):
    _agrees_with_the_reference(
        validate_gentle(parse_presentation(path.read_text())))


def test_string_module_dimension_rule(eightv):
    w = make_string(eightv, [L("i"), L("d"), L("a"), L("f"), L("k")])
    m = string_module(eightv, w)
    assert m.total_dim == len(w) + 1 == 6
    assert [m.dims[v] for v in "651278"] == [1, 1, 1, 1, 1, 1]


def test_lazy_word_gives_simple_module(eightv):
    m = string_module(eightv, lazy_word(eightv, "8"))
    assert m.total_dim == 1 and m.dims["8"] == 1


def test_radical_e_module_dimension_vector(eightv):
    w = radical_summand_string(eightv, "e")
    assert w.letters == tuple(Letter(n, True)
                              for n in radical_summand_word(eightv, "e"))
    m = string_module(eightv, w)
    assert m.total_dim == 10
    assert m.dims["2"] == 2 and m.dims["7"] == 2
    for v in "134568":
        assert m.dims[v] == 1


def test_peak_word_on_kronecker(kron):
    w = make_string(kron, [L("alpha"), Li("beta")])
    assert contains_peak(w)
    m = string_module(kron, w)
    assert (m.dims["1"], m.dims["2"]) == (2, 1)


def test_directed_words_have_no_peak(eightv):
    w = radical_summand_string(eightv, "e")
    assert not contains_peak(w)
    assert not contains_peak(w.inverse())


def test_peak_detection_symmetric_under_inverse(kron):
    w = make_string(kron, [L("alpha"), Li("beta")])
    assert contains_peak(w.inverse()) == contains_peak(w)


def test_string_modules_satisfy_relations_for_all_small_words(eightv):
    for w in enumerate_strings(eightv, 4):
        check_module(string_module(eightv, w))


def test_string_module_isomorphic_to_inverse(eightv):
    from reference import isomorphism

    w = make_string(eightv, [L("d"), L("a"), Li("e")])
    m, n = string_module(eightv, w), string_module(eightv, w.inverse())
    f = isomorphism(m, n)
    assert f is not None
    f.check()


def test_word_length_counts_letters_and_equal_words_hash_equally(eightv):
    lazy = lazy_word(eightv, "8")
    assert len(lazy) == 0 and not lazy
    w = make_string(eightv, [L("d"), L("a"), Li("e")])
    twin = make_string(eightv, [L("d"), L("a"), Li("e")])
    assert len(w) == 3 and twin == w and hash(twin) == hash(w)
    assert w.inverse() != w
    assert w.canonical() == w.inverse().canonical()


def test_enumerate_lazy_only(eightv):
    words = enumerate_strings(eightv, 0)
    assert len(words) == 8 and all(w.is_lazy for w in words)


def test_enumerate_a2(a2):
    words = enumerate_strings(a2, 1)
    assert len(words) == 3  # e_1, e_2, the arrow


def test_enumerate_eight_vertex_max2_against_generate_and_filter(eightv, kron):
    # independent oracle: try every letter combination, halve the valid
    # non-lazy count for the w ~ w^{-1} quotient (no word is its own
    # inverse: its middle letter, or pair of letters, would undo itself)
    def generate_and_filter(a, max_letters):
        alphabet = [Letter(arr.name, d) for arr in a.arrows
                    for d in (True, False)]
        return sum(check_string(a, combo)[0]
                   for length in range(1, max_letters + 1)
                   for combo in product(alphabet, repeat=length))

    raw = generate_and_filter(eightv, 2)
    assert raw == 52
    words = enumerate_strings(eightv, 2)
    assert len(words) == 8 + raw // 2 == 34
    # one representative per {w, w^-1}, and that one canonical
    assert all(w.canonical() == w for w in words)
    twocycles = parse_presentation(data_path("twocycles.gentle").read_text())
    for a in (kron, validate_gentle(projective_line_chain(3)),
              validate_gentle(twocycles)):
        assert len(enumerate_strings(a, 3)) == (
            len(a.vertices) + generate_and_filter(a, 3) // 2)


def test_projective_word_points_away_from_its_top(eightv, kron):
    word, top = projective_word(eightv, "1")
    assert (word.display(), top) == ("k^-1,f^-1,a^-1", 3)
    for a in (eightv, kron):
        for v in a.vertices:
            word, top = projective_word(a, v)
            assert word.vertices[top] == v
            assert check_string(a, word.letters) == (True, None)
            assert [l.direct for l in word.letters] == (
                [False] * top + [True] * (len(word) - top))
    assert projective_word(kron, "2") == (lazy_word(kron, "2"), 0)


def test_band_requires_mixed_directions(kron):
    with pytest.raises(ValueError, match="mix"):
        make_band(kron, [L("alpha"), L("beta")])


def test_band_rejects_zero_parameter(kron):
    b = make_band(kron, [Li("alpha"), L("beta")])
    with pytest.raises(ValueError, match="nonzero"):
        band_module(kron, b, 0, 1)


def test_band_rejects_proper_power(kron):
    with pytest.raises(ValueError, match="power"):
        make_band(kron, [Li("alpha"), L("beta"), Li("alpha"), L("beta")])


def test_kronecker_band_n1(kron):
    b = make_band(kron, [Li("alpha"), L("beta")])
    m = band_module(kron, b, 1, 1)
    assert m.dims == {"1": 1, "2": 1}
    # one arrow acts by 1, the other by the parameter
    vals = sorted(str(m.mats[a].rows[0][0]) for a in ("alpha", "beta"))
    assert vals == ["1", "1"]


def test_band_parameter_over_a_prime_field_is_a_quotient(kron):
    f101 = 101
    b = make_band(kron, [Li("alpha"), L("beta")])
    m = band_module(kron, b, Fraction(3, 2), 1, f101)
    # beta is the designated direct letter and acts by 3/2 = 3 * 51 mod 101
    assert m.mats["beta"].rows == [{0: 52}]
    assert m.mats != band_module(kron, b, 1, 1, f101).mats


def test_kronecker_band_jordan_block(kron):
    b = make_band(kron, [Li("alpha"), L("beta")])
    m = band_module(kron, b, 3, 2)
    assert m.dims == {"1": 2, "2": 2}
    mats = {a: _dense(m.mats[a]) for a in ("alpha", "beta")}
    # beta is the designated direct letter: Jordan block with eigenvalue 3
    assert mats["beta"][0][0] == 3 and mats["beta"][1][1] == 3
    assert mats["beta"][0][1] == 1
    assert mats["alpha"][0][0] == 1 and mats["alpha"][0][1] == 0
