"""
Built-in distance-4 packing schemes for the Grassmannians of lines in
GF(q)^5 and GF(q)^6, assembled from coset partitions of diagram codes.

Each scheme row pairs pivot classes at Hamming distance >= 4 and says how
many matched cosets to take from each class; the parts it produces have
inner distance >= 4 and together stay pairwise disjoint.  These are the
stock d-packing inputs for the coset construction when no parallelism is
available.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .gfq import GF
from .rankmetric import _fdrm_basis, _fillings_to_words
from .spaces import FerrersDiagram, MatGF, Subspace, _lifted_span, _span, ferrers_of, hamming_distance, rref
from .constructions import DPacking


def _coset_origins(F: FerrersDiagram, q: int) -> tuple[list[Sequence[int]], list[tuple[int, ...]]]:
    """The basis, over the cells of F, of the distance-2 diagram code
    (`rankmetric._fdrm_basis`) and one representative of each of its
    cosets in the space of all fillings.

    The representatives are the fillings supported on the cells away from
    the pivot cells of the basis's RREF, a transversal of the quotient
    since the code is linear; they come in counter order over those cells
    (the last free cell varies fastest)."""
    field, basis, dots = GF(q), _fdrm_basis(F, 2, q), F.dot_count()
    pivots = set(rref(MatGF(field, basis, dots))[1])
    units = [[int(c == f) for c in range(dots)] for f in range(dots) if f not in pivots]
    return basis, _span(field, units, [0] * dots)  # a zero origin of full length, even with no free cell


def fdrm_coset_partition(F: FerrersDiagram, q: int):
    """
    Partition all q^dots fillings of the diagram into cosets of the
    distance-2 diagram code: each coset keeps inner rank distance >= 2.

    Each coset is the `_span` of the code's basis from one representative
    of `_coset_origins`, as a tuple of bounding-box matrices.
    """
    field = GF(q)
    basis, reps = _coset_origins(F, q)
    cosets = [_fillings_to_words(field, F, _span(field, basis, rep)) for rep in reps]
    total = sum(len(c) for c in cosets)
    assert total == q ** F.dot_count(), (total, q ** F.dot_count())
    return cosets


# scheme rows: (pivot classes, number of matched cosets as a function of q)
_SCHEME_5_2: list[tuple[tuple[str, ...], Callable[[int], int]]] = [
    (("11000", "00110"), lambda q: q**2),
    (("11000", "00101"), lambda q: q),
    (("11000", "00011"), lambda q: 1),
    (("11000",), lambda q: q**3 - q**2 - q - 1),
    (("10100", "01010"), lambda q: q**2),
    (("10100", "01001"), lambda q: q**2),
    (("10100",), lambda q: q**3 - 2 * q**2),
    (("01100", "10010"), lambda q: q**2),
    (("10010",), lambda q: q**3 - q**2),
    (("10001",), lambda q: q**3),
]

_SCHEME_6_2: list[tuple[tuple[str, ...], Callable[[int], int]]] = [
    (("110000", "001100", "000011"), lambda q: 1),
    (("110000", "001100"), lambda q: q**2 - 1),
    (("110000", "001010", "000101"), lambda q: q),
    (("110000", "001010"), lambda q: q**2 - q),
    (("110000", "000110", "001001"), lambda q: q),
    (("110000", "001001"), lambda q: q**2 - q),
    (("110000",), lambda q: q**4 - 3 * q**2),
    (("101000", "010100"), lambda q: q**3),
    (("101000", "010010"), lambda q: q**3),
    (("101000",), lambda q: q**4 - 2 * q**3),
    (("011000", "100100"), lambda q: q**3),
    (("100100", "010001"), lambda q: q**3),
    (("100100",), lambda q: q**4 - 2 * q**3),
    (("100010",), lambda q: q**4),
    (("100001",), lambda q: q**4),
]

_SCHEMES = {5: _SCHEME_5_2, 6: _SCHEME_6_2}


def line_packing(q: int, n: int) -> DPacking:
    """The built-in distance-4 packing of the lines of GF(q)^n, n in {5, 6}."""
    if n not in _SCHEMES:
        raise ValueError(f"no built-in line packing scheme for n = {n}")
    scheme = _SCHEMES[n]
    field = GF(q)
    cursors: dict[str, int] = {}
    cosets: dict[str, list[list[Subspace]]] = {}
    for vectors, _count in scheme:
        for vs in vectors:
            if vs not in cosets:
                v = tuple(int(c) for c in vs)
                basis, reps = _coset_origins(ferrers_of(v), q)
                cosets[vs] = [_lifted_span(field, v, basis, rep) for rep in reps]
                cursors[vs] = 0
    for vectors, _ in scheme:
        for a, b in itertools.combinations(vectors, 2):
            va = tuple(int(c) for c in a)
            vb = tuple(int(c) for c in b)
            if hamming_distance(va, vb) < 4:
                raise AssertionError(f"scheme row {vectors} violates distance 4")
    parts = []
    for vectors, count_fn in scheme:
        count = count_fn(q)
        if count < 0:
            raise ValueError(f"scheme count negative at q={q} for row {vectors}")
        for i in range(count):
            part = []
            for vs in vectors:
                part += cosets[vs][cursors[vs] + i]
            parts.append(tuple(part))
        for vs in vectors:
            cursors[vs] += count
    for vs, cur in cursors.items():
        if cur > len(cosets[vs]):
            raise AssertionError(f"scheme over-consumes cosets of class {vs}")
    packing = DPacking(q, n, 2, 4, tuple(parts), d_ambient=2)
    packing.validate_disjoint()
    return packing


def coset_sum(packing: DPacking, other: DPacking | None = None) -> int:
    """sum_i |P_i| * |P'_i| with parts matched by descending size."""
    sizes1 = sorted((len(p) for p in packing.parts), reverse=True)
    sizes2 = sizes1 if other is None else sorted((len(p) for p in other.parts), reverse=True)
    return sum(a * b for a, b in zip(sizes1, sizes2))
