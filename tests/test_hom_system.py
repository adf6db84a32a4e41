"""The program's hom systems against the full commutation system of
tests/reference.py, in which every cell of every block is an unknown.
The program numbers only the cells that no one-sided equation with a
single entry forces to 0; the kernel, and so every hom dimension and
embedding obstruction, must not change."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gentlegp import (QQ, InputError, PrimeField, Representation,
                      embedding_obstruction,
                      enumerate_strings, hom_dim, projective_cover,
                      projective_rep, radical_summand_rep, receiving_sum,
                      string_module, syzygy, validate_gentle)
from gentlegp.families import projective_line_chain
from gentlegp.reps import _hom_system

import reference
from test_gentle import gentle_presentations

FIELDS = [QQ, PrimeField(101), PrimeField(5)]
# none of them is 0 or 1 in any of the fields
BAND_PARAMETERS = [2, Fraction(3, 2), Fraction(-1, 3)]


def forced_cells(m, n):
    """The block cells of Hom(M, N) that a one-sided equation with one
    entry forces to 0, read off the arrow matrices: where only N_a B_s
    survives, a row of N_a with its one entry at k kills row k of B_s;
    where only B_t M_a survives, a column of M_a with its one entry at k
    kills column k of B_t."""
    common = {v for v, d in m.dims.items() if d and n.dims.get(v)}
    forced = set()
    for arr in m.algebra.arrows:
        s, t = arr.source, arr.target
        na = n.mats.get(arr.name) if s in common else None
        ma = m.mats.get(arr.name) if t in common else None
        if ma is None and na is not None:
            for row in na.rows:
                if len(row) == 1:
                    [k] = row
                    forced.update((s, k, j) for j in range(m.dims[s]))
        if na is None and ma is not None:
            for col in ma.transpose().rows:
                if len(col) == 1:
                    [k] = col
                    forced.update((t, i, k) for i in range(n.dims[t]))
    return forced


def check_against_reference(m, n):
    """The program numbers the cells of the full system that are not
    forced, in the same order, and finds the same hom dimension."""
    cells = reference.hom_system(m, n)[1]
    forced = forced_cells(m, n)
    assert _hom_system(m, n)[1] == [c for c in cells if c not in forced]
    assert hom_dim(m, n) == reference.hom_dim(m, n)
    return len(cells), len(forced)


def test_hom_systems_number_no_forced_cell_on_lambda6():
    a = validate_gentle(projective_line_chain(6))
    full = forced = 0
    for w in enumerate_strings(a, 3):
        m = string_module(a, w)
        cells, dead = check_against_reference(m, receiving_sum(m))
        full += cells
        forced += dead
    assert (full, full - forced) == (1055, 595)


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


@settings(max_examples=40, deadline=None)
@given(gentle_presentations(), st.sampled_from(FIELDS),
       st.sampled_from(BAND_PARAMETERS))
def test_hom_dims_and_obstructions_match_the_full_system(p, fld, lam):
    a = validate_gentle(p)
    strings = [string_module(a, w, fld) for w in enumerate_strings(a, 3)]
    # a syzygy's basis comes from kernel vectors, not from a walk, and a
    # disguised module's from no walk at all: its arrow matrices have rows
    # and columns with more than one entry, which force no cell
    syzygies = [omega for m in strings
                for omega in [syzygy(projective_cover(m))]
                if not omega.is_zero()]
    projectives = [projective_rep(a, v, fld) for v in a.vertices]
    radicals = [radical_summand_rep(a, arr.name, fld) for arr in a.arrows]
    for m in strings + syzygies + [disguised(x) for x in syzygies] + \
            _bands(a, fld, lam):
        for n in [receiving_sum(m), disguised(receiving_sum(m)),
                  *projectives, *radicals]:
            check_against_reference(m, n)
        assert embedding_obstruction(m) == \
            reference.embedding_obstruction(m)


@pytest.mark.parametrize("fld", FIELDS, ids=str)
@pytest.mark.parametrize("lam", BAND_PARAMETERS, ids=str)
def test_band_homs_match_the_full_system(kron, fld, lam):
    # a band's arrow matrices hold its parameter, and against another
    # band every equation has both sides
    m = _bands(kron, fld, lam)[0]
    for n in [m, receiving_sum(m), *_bands(kron, fld, 2)]:
        check_against_reference(m, n)
    assert embedding_obstruction(m) == reference.embedding_obstruction(m)
