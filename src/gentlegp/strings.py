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
        """The lexicographically smaller of the word and its inverse."""
        inv = self.inverse()
        return self if self.sort_key() <= inv.sort_key() else inv

    def display(self):
        if self.is_lazy:
            return f"e_{self.vertices[0]}"
        return ",".join(str(l) for l in self.letters)


def lazy_word(a: GentleAlgebra, vertex: str) -> StringWord:
    if vertex not in a.vertices:
        raise PresentationError(f"unknown vertex {vertex!r}")
    return StringWord((), (vertex,))


def _letter_endpoints(a: GentleAlgebra, letter: Letter):
    arr = a.arrow_map.get(letter.arrow)
    if arr is None:
        raise PresentationError(f"unknown arrow {letter.arrow!r}")
    return (arr.source, arr.target) if letter.direct else (arr.target, arr.source)


def check_string(a: GentleAlgebra, letters) -> tuple[bool, str | None]:
    """Validity of a letter sequence, with the first failure reason."""
    letters = tuple(letters)
    if not letters:
        return True, None
    prev_end = None
    for i, l in enumerate(letters):
        start, end = _letter_endpoints(a, l)
        if prev_end is not None and start != prev_end:
            return False, f"letters {i} and {i+1} do not form a walk"
        prev_end = end
        if i == 0:
            continue
        p = letters[i - 1]
        if p.arrow == l.arrow and p.direct != l.direct:
            return False, f"letter {i+1} immediately undoes letter {i}"
        if p.direct and l.direct:
            if (l.arrow, p.arrow) in a.relations:
                return False, (f"direct letters {p.arrow},{l.arrow} "
                               f"form a relation")
        elif not p.direct and not l.direct:
            if (p.arrow, l.arrow) in a.relations:
                return False, (f"inverse letters {p.arrow}^-1,{l.arrow}^-1 "
                               f"reverse a relation")
    return True, None


def is_valid_string(a: GentleAlgebra, letters) -> bool:
    return check_string(a, letters)[0]


def make_string(a: GentleAlgebra, letters) -> StringWord:
    ok, reason = check_string(a, letters)
    if not ok:
        raise InputError(f"invalid string word: {reason}")
    letters = tuple(letters)
    if not letters:
        raise InputError("use lazy_word for empty words")
    verts = [_letter_endpoints(a, letters[0])[0]]
    for l in letters:
        verts.append(_letter_endpoints(a, l)[1])
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
    pres = a.presentation
    # the letters that leave each vertex, with the vertex they reach
    steps = {v: [(Letter(b.name, True), b.target) for b in pres.arrows_out(v)]
             + [(Letter(b.name, False), b.source) for b in pres.arrows_in(v)]
             for v in a.vertices}
    out = [lazy_word(a, v) for v in a.vertices]
    frontier = [StringWord((l,), (v, u)) for v in a.vertices
                for l, u in steps[v]]
    for length in range(1, max_letters + 1):
        out.extend(frontier)
        if length == max_letters or not frontier:
            break
        frontier = [StringWord(w.letters + (l,), w.vertices + (u,))
                    for w in frontier for l, u in steps[w.vertices[-1]]
                    if is_valid_string(a, (w.letters[-1], l))]
    # a word and its inverse share one canonical form
    unique = {w.canonical() for w in out}
    return sorted(unique,
                  key=lambda w: (len(w.letters), w.sort_key(), w.vertices))
