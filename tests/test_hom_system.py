"""The program's hom systems against the full commutation system of
tests/reference.py, in which every cell of every block is an unknown.
The program drops the cells that an equation with one unknown forces to
0, repeated until no equation has one unknown.  A forced cell is a pivot
column of the reduced echelon form, so the kernel basis, read as block
cells, must not change, nor any hom dimension.  The embedding
obstruction, which the program reads off the algebra's injective
presentation with no hom system, is checked on the same modules."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gentlegp import (QQ, InputError, Representation,
                      embedding_obstruction,
                      enumerate_strings, hom_dim, parse_presentation,
                      projective_cover,
                      projective_rep, radical_summand_rep, string_module, syzygy, validate_gentle)
from gentlegp.families import projective_line_chain
from gentlegp.reps import _hom_vectors

import reference
from conftest import data_path, field_id
from test_gentle import gentle_presentations

FIELDS = [QQ, 101, 5]
# none of them is 0 or 1 in any of the fields
BAND_PARAMETERS = [2, Fraction(3, 2), Fraction(-1, 3)]
LOOPS = sorted(data_path("loops").glob("*.gentle"))


def check_against_reference(m, n):
    """The program's unknowns are cells of the full system, in the same
    order; its kernel vectors, read as cells, are the full system's, one
    for one; and it finds as many maps.  Returns the number of cells of
    each system."""
    full_vectors, full_cells = reference.hom_vectors(m, n)
    vectors, cells = _hom_vectors(m, n)
    # each test consumes the iterator up to its match, so order counts
    places = iter(full_cells)
    assert all(c in places for c in cells)

    def read(vecs, where):
        return [{where[idx]: x for idx, x in vec.items()} for vec in vecs]

    assert read(vectors, cells) == read(full_vectors, full_cells)
    assert hom_dim(m, n) == len(full_vectors)
    return len(full_cells), len(cells)


def test_hom_systems_keep_the_unforced_cells_on_lambda6():
    a = validate_gentle(projective_line_chain(6))
    full = kept = 0
    for w in enumerate_strings(a, 3):
        m = string_module(a, w)
        cells, unknowns = check_against_reference(
            m, reference.receiving_sum(m))
        full += cells
        kept += unknowns
    assert (full, kept) == (1055, 248)


def _bands(a, fld, lam):
    """A band module of size 1 with parameter lam for each band word of at
    most four letters, up to two of them."""
    out = []
    for w in enumerate_strings(a, 4):
        if len(out) == 2:
            break
        try:
            b = reference.make_band(a, w.letters)
        except InputError:
            continue
        out.append(reference.band_module(a, b, lam, 1, fld))
    return out


def disguised(m):
    """M in the basis of the columns of g_v, 1 on and above the diagonal,
    at every vertex: rows and columns of its arrow matrices then hold more
    than one entry."""
    fld = m.field
    g = {v: reference.from_rows(fld, [[int(c >= r) for c in range(d)]
                                      for r in range(d)])
         for v, d in m.dims.items()}
    amap = m.algebra.arrow_map
    return Representation(m.algebra, fld, m.dims, {
        name: reference.solve(g[amap[name].target],
                              x.mul(g[amap[name].source]))
        for name, x in m.mats.items()})


def _strings_and_syzygies(a, fld):
    """The string modules of at most three letters, and those modules
    followed by their nonzero syzygies and disguised copies of these."""
    strings = [string_module(a, w, fld) for w in enumerate_strings(a, 3)]
    # a syzygy's basis comes from kernel vectors, not from a walk, and a
    # disguised module's from no walk at all: its arrow matrices have rows
    # and columns with more than one entry, which force no cell
    syzygies = [omega for m in strings
                for omega in [syzygy(projective_cover(m))]
                if not omega.is_zero()]
    return strings, strings + syzygies + [disguised(x) for x in syzygies]


def _check_modules(a, fld, modules, targets=()):
    """Each module against the projectives whose socle meets its support
    (tests/reference.py's receiving sum), a disguised copy of that sum,
    every projective, every radical summand and the given targets, and
    its embedding obstruction against the reference."""
    projectives = [projective_rep(a, v, fld) for v in a.vertices]
    radicals = [radical_summand_rep(a, arr.name, fld) for arr in a.arrows]
    for m in modules:
        target = reference.receiving_sum(m)
        for n in [target, disguised(target),
                  *projectives, *radicals, *targets]:
            check_against_reference(m, n)
        assert embedding_obstruction(m) == \
            reference.embedding_obstruction(m)


@settings(max_examples=40, deadline=None)
@given(gentle_presentations(), st.sampled_from(FIELDS),
       st.sampled_from(BAND_PARAMETERS))
def test_hom_dims_and_obstructions_match_the_full_system(p, fld, lam):
    a = validate_gentle(p)
    _, modules = _strings_and_syzygies(a, fld)
    _check_modules(a, fld, modules + _bands(a, fld, lam))


@pytest.mark.parametrize("fld", FIELDS, ids=field_id)
@pytest.mark.parametrize("path", LOOPS, ids=lambda p: p.stem)
def test_loop_homs_match_the_full_system(path, fld):
    # a loop's equation meets its own unknown from both sides; the
    # generated algebras reach this case only when a draw has a loop
    a = validate_gentle(parse_presentation(path.read_text()))
    strings, modules = _strings_and_syzygies(a, fld)
    _check_modules(a, fld, modules, strings)


@pytest.mark.parametrize("fld", FIELDS, ids=field_id)
@pytest.mark.parametrize("lam", BAND_PARAMETERS, ids=str)
def test_band_homs_match_the_full_system(kron, fld, lam):
    # a band's arrow matrices hold its parameter, and against another
    # band every equation has both sides
    m = _bands(kron, fld, lam)[0]
    for n in [m, reference.receiving_sum(m), *_bands(kron, fld, 2)]:
        check_against_reference(m, n)
    assert embedding_obstruction(m) == reference.embedding_obstruction(m)
