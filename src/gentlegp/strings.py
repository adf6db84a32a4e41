"""Words over {arrow, inverse arrow}: the words of string modules, which
:mod:`gentlegp.reps` turns into matrices.

A word is read left to right: letter i connects walk vertex v_{i-1} to
v_i, forwards for a direct letter and backwards for an inverse one.
"""

from __future__ import annotations

from typing import NamedTuple

from .gentle import GentleAlgebra, radical_summand_word
from .quiver import InputError, PresentationError


class Letter(NamedTuple):
    arrow: str
    direct: bool

    def inverse(self):
        return Letter(self.arrow, not self.direct)

    def __str__(self):
        return self.arrow if self.direct else f"{self.arrow}^-1"


def parse_letters(text: str):
    """CLI word syntax: comma-separated, `a` direct, `a^-1` inverse."""
    letters = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise InputError("empty letter in word")
        if tok.endswith("^-1"):
            letters.append(Letter(tok[:-3].strip(), False))
        else:
            letters.append(Letter(tok, True))
    return tuple(letters)


class StringWord(NamedTuple):
    """A valid string: letters plus the visited walk vertices.

    len(vertices) == len(letters) + 1; a lazy word has no letters and one
    vertex.  len(w) counts letters, so the tuple's _make and _replace
    fail on a word of other than two letters.
    """

    letters: tuple[Letter, ...]
    vertices: tuple[str, ...]

    def __len__(self):
        return len(self.letters)

    @property
    def is_lazy(self):
        return not self.letters

    def inverse(self):
        return StringWord(tuple(l.inverse() for l in reversed(self.letters)),
                          tuple(reversed(self.vertices)))

    def sort_key(self):
        return tuple((l.arrow, not l.direct) for l in self.letters)

    def canonical(self):
        """The smaller of the word and its inverse by sort_key, compared
        from both ends without building the inverse."""
        for l, r in zip(self.letters, reversed(self.letters)):
            key, inverse_key = (l.arrow, not l.direct), (r.arrow, r.direct)
            if key != inverse_key:
                return self if key < inverse_key else self.inverse()
        return self

    def display(self):
        if self.is_lazy:
            return f"e_{self.vertices[0]}"
        return ",".join(str(l) for l in self.letters)


def lazy_word(a: GentleAlgebra, vertex: str) -> StringWord:
    if vertex not in a.vertices:
        raise PresentationError(f"unknown vertex {vertex!r}")
    return StringWord((), (vertex,))


def _follows(nxt, p: Letter, l: Letter) -> bool:
    """Whether letter l may follow letter p in a string, the two forming
    a walk, for nxt the algebra's allowed continuations: letters of
    mixed directions must not undo each other, and letters of one
    direction must compose to no relation."""
    if p.direct != l.direct:
        return p.arrow != l.arrow
    return nxt[p.arrow] == l.arrow if p.direct else nxt[l.arrow] == p.arrow


def make_string(a: GentleAlgebra, letters) -> StringWord:
    """The string of a letter sequence, checked letter by letter; the
    first failure is an InputError that names it."""
    letters = tuple(letters)
    if not letters:
        raise InputError("use lazy_word for empty words")
    amap, nxt = a.arrow_map, a.continuation
    verts = []
    for i, l in enumerate(letters):
        arr = amap.get(l.arrow)
        if arr is None:
            raise PresentationError(f"unknown arrow {l.arrow!r}")
        start, end = (arr.source, arr.target) if l.direct \
            else (arr.target, arr.source)
        reason = None
        if not verts:
            verts.append(start)
        elif start != verts[-1]:
            reason = f"letters {i} and {i+1} do not form a walk"
        elif not _follows(nxt, p := letters[i - 1], l):
            if p.direct != l.direct:
                reason = f"letter {i+1} immediately undoes letter {i}"
            elif p.direct:
                reason = f"direct letters {p.arrow},{l.arrow} form a relation"
            else:
                reason = (f"inverse letters {p.arrow}^-1,{l.arrow}^-1 "
                          "reverse a relation")
        if reason:
            raise InputError(f"invalid string word: {reason}")
        verts.append(end)
    return StringWord(letters, tuple(verts))


def radical_summand_string(a: GentleAlgebra, arrow: str) -> StringWord:
    """The word of the radical summand R(arrow), from the end of arrow: a
    chain of allowed continuations, so a valid string as it is built."""
    names = radical_summand_word(a, arrow)
    amap = a.arrow_map
    return StringWord(tuple(Letter(n, True) for n in names),
                      tuple(amap[n].target for n in (arrow,) + names))


def projective_word(a: GentleAlgebra, v: str):
    """The word of the indecomposable projective P_v, and the position of
    its top.  rad P_v is the sum of the radical summands of the (at most
    two) arrows c out of v, so the word runs back down the first chain
    (c,) + radical_summand_word(a, c) to v, then down the second."""
    chains = [(c.name,) + radical_summand_word(a, c.name)
              for c in a.presentation.arrows_out(v)]
    if not chains:
        return lazy_word(a, v), 0
    first, second = chains[0], (chains[1] if len(chains) > 1 else ())
    amap = a.arrow_map
    letters = tuple(Letter(name, False) for name in reversed(first))
    letters += tuple(Letter(name, True) for name in second)
    verts = ([amap[name].target for name in reversed(first)] + [v]
             + [amap[name].target for name in second])
    return StringWord(letters, tuple(verts)), len(first)


def enumerate_strings(a: GentleAlgebra, max_letters: int):
    """All valid string words with at most max_letters letters, one
    representative per {w, w^-1} pair, lazy words included."""
    if max_letters < 0:
        raise InputError("max_letters must be nonnegative")
    pres, nxt = a.presentation, a.continuation
    # the letters that leave each vertex, with the vertex they reach
    steps = {v: [(Letter(b.name, True), b.target) for b in pres.arrows_out(v)]
             + [(Letter(b.name, False), b.source) for b in pres.arrows_in(v)]
             for v in a.vertices}
    out = [lazy_word(a, v) for v in a.vertices]
    frontier = [StringWord((l,), (v, u)) for v in a.vertices
                for l, u in steps[v]]
    for length in range(1, max_letters + 1):
        # a word and its inverse share one canonical form
        out.extend(w for w in frontier if w.canonical() == w)
        if length == max_letters or not frontier:
            break
        frontier = [StringWord(w.letters + (l,), w.vertices + (u,))
                    for w in frontier for l, u in steps[w.vertices[-1]]
                    if _follows(nxt, w.letters[-1], l)]
    return sorted(out, key=lambda w: (len(w.letters), w.sort_key(),
                                      w.vertices))
