"""Seifert matrices and Laurent forms shared by the test modules:
hypothesis strategies for admissible Seifert matrices of genus 1 and up,
integral or rational; symplectic_seifert, which builds one from its upper
triangle; and the reference Laurent matrix of a Witt presentation, which
the package never builds: presentation_matrix, the block sum of its parts'
forms substituted by t -> t^k (substituted)."""

from fractions import Fraction
from functools import reduce

from hypothesis import strategies as st

from bingcheck.laurent import LaurentPoly
from bingcheck.matrices import ExactMatrix
from bingcheck.seifert import SeifertMatrix


@st.composite
def admissible_forms(draw, max_genus=3):
    """Integral Seifert matrices of genus 1 to `max_genus` with A - A^T the
    standard symplectic form, the upper triangle (diagonal included) drawn
    entry by entry, evenly from -3 to 3: st.integers favours 0, whose forms
    mostly have a vanishing signature function."""
    g = draw(st.integers(1, max_genus))
    return symplectic_seifert(g, [draw(st.sampled_from(range(-3, 4)))
                                  for _ in range(g * (2 * g + 1))])


@st.composite
def integral_or_rational_forms(draw, max_genus=3):
    """An admissible form, or one with entries halved or thirded (a rational
    Seifert matrix: A - A^T then has det 1/4 ** g or 1/9 ** g)."""
    s = draw(admissible_forms(max_genus))
    scale = draw(st.sampled_from([1, Fraction(1, 2), Fraction(1, 3)]))
    return SeifertMatrix([[scale * e for e in row] for row in s.matrix.entries])


def symplectic_seifert(genus, upper):
    """Integral 2g x 2g Seifert matrix with A - A^T the standard symplectic
    form, its upper triangle (diagonal included) read row by row from
    `upper`."""
    n = 2 * genus
    entries = iter(upper)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = next(entries)
            if j > i:
                rows[j][i] = rows[i][j] - (1 if j == i + 1 and i % 2 == 0 else 0)
    return SeifertMatrix(rows)


def substituted(m, k):
    """The matrix m(t^k): t -> t^k on each LaurentPoly entry, a constant
    entry kept."""
    return ExactMatrix([[e.substitute_power(k) if isinstance(e, LaurentPoly) else e
                         for e in row] for row in m.entries])


def presentation_matrix(p):
    """The Laurent matrix a Witt presentation stands for: the block sum over
    its parts (base, k) of the base's seifert_form at t^k."""
    return reduce(ExactMatrix.block_sum,
                  (substituted(base.seifert.seifert_form(), k) for base, k in p.parts),
                  ExactMatrix([]))
