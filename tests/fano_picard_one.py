"""Fano manifolds of Picard rank one whose numbers are classified in every
dimension: index r >= n - 2, that is coindex n + 1 - r at most 3.

Each family is (name, r, H**n), where -K = r*H for the ample generator H,
so (-K)**n = r**n * H**n and a curve Z has anticanonical degree d = r*(H.Z).
The rows are typed in by hand:

* r = n + 1: projective space, H**n = 1; r = n: the quadric, H**n = 2
  (Kobayashi-Ochiai, J. Math. Kyoto Univ. 13, 1973);
* r = n - 1: del Pezzo manifolds of Picard rank one, H**n = 1..5 (Fujita,
  Classification Theories of Polarized Varieties, LMS Lecture Notes 155,
  1990);
* r = n - 2: Mukai manifolds, H**n = 2g - 2 for g = 2..10 and 12 (Mukai,
  Proc. Natl. Acad. Sci. USA 86, 1989).

At n = 3 these are Iskovskikh's 17 families of Picard-rank-one Fano 3-folds.
Above n = 3 the rows are a superset: a del Pezzo manifold of degree 5 and
a Mukai manifold of a given genus exist only up to some dimension, so a
check that holds on every row holds on the real list.
"""


def picard_one_families(n):
    """The (name, index r, H**n) rows for Fano n-folds, n >= 3."""
    return [
        ("projective space", n + 1, 1),
        ("quadric", n, 2),
        *((f"del Pezzo of degree {k}", n - 1, k) for k in range(1, 6)),
        *((f"Mukai of genus {g}", n - 2, 2 * g - 2) for g in (*range(2, 11), 12)),
    ]
