"""
The bound engine for maximum code sizes: classical upper bounds, the
partial-spread family, the exact-rational linear programming bound, the
sharpened-rounding Johnson improvement, recursive best-known values with
memoization and provenance, formula-level lower bounds, a curated fact
table, and the dimension-layer bounds for mixed-dimension codes.

All arithmetic is exact (ints and Fractions); floats never enter a bound.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .constructions import _pivot_vector, _skeleton
from .divisible import sharp_floor
from .gfq import _factor_prime_power
from .provenance import BoundResult
from .qcombi import count_large_intersection, gauss_binomial, gauss_int, qpoly_eval, qpoly_parse
from .rankmetric import _fdrm_meets_bound
from .spaces import ferrers_of


class Inapplicable(ValueError):
    """A bound's applicability condition fails for these parameters."""


# -- the fact table ----------------------------------------------------------


@dataclass(frozen=True)
class Fact:
    q_spec: str  # integer string, '*', or '>=Q'
    n: int
    d: int
    k: int
    kind: str  # exact | lower | upper
    value_poly: tuple[int, ...]  # coefficients in q, low degree first
    extra_term: Optional[tuple[int, int, int]]  # (n, d, k) of an additive A-term
    citation: str

    def applies(self, q: int) -> bool:
        if self.q_spec == "*":
            return True
        if self.q_spec.startswith(">="):
            return q >= int(self.q_spec[2:])
        return q == int(self.q_spec)


class FactFileError(ValueError):
    """A fact table that cannot be read or parsed, whose message starts with
    the file's path, and the line number when a row is at fault; or one that
    parses but contradicts itself or the engine: a fact that makes a bound
    depend on itself (`BoundEngine._evaluate`), or lower and upper bounds
    that cross with a fact in either tree (`BoundEngine.bounds`)."""


class FactTable:
    """Facts in table order, bucketed by (n, d) for `lookup`.  `facts` is a
    tuple, so the buckets cannot go stale."""

    def __init__(self, facts: Sequence[Fact] = ()):
        self.facts = tuple(facts)
        self._buckets: dict[tuple[int, int], list[Fact]] = {}
        for f in self.facts:
            self._buckets.setdefault((f.n, f.d), []).append(f)

    @classmethod
    def from_tsv(cls, text: str, source: str = "<facts>") -> "FactTable":
        """The facts of a tab-separated table; FactFileError, naming `source`
        and the line, for a malformed row."""
        facts = []
        for number, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                facts.append(_parse_fact(line))
            except ValueError as exc:
                raise FactFileError(f"{source}:{number}: {exc}") from None
        return cls(facts)

    def lookup(self, q: int, n: int, d: int, k: int, kinds: tuple[str, ...]):
        for f in self._buckets.get((n, d), ()):
            if f.k in (k, n - k) and f.kind in kinds and f.applies(q):
                yield f


def _parse_fact(line: str) -> Fact:
    """One table row; ValueError for a wrong field count, a bad kind or a
    field that does not parse."""
    q_spec, n, d, k, kind, value, citation = line.split("\t")
    if q_spec != "*":
        int(q_spec.removeprefix(">="))  # `Fact.applies` reads it as an int
    if kind not in ("exact", "lower", "upper"):
        raise ValueError(f"bad fact kind {kind!r}")
    extra = None
    if "+A(" in value:
        value, _, rest = value.partition("+A(")
        inner = rest.rstrip(")")
        nn, dd_kk = inner.split(",")
        dd, kk = dd_kk.split(";")
        extra = (int(nn), int(dd), int(kk))
    return Fact(q_spec, int(n), int(d), int(k), kind, qpoly_parse(value), extra, citation)


def load_default_facts() -> FactTable:
    """The table named by SCODES_FACTS, else the packaged one; FactFileError
    for a file that cannot be read or parsed.  The file is read on every
    call, and each text is parsed once per process (`_parsed_facts`)."""
    override = os.environ.get("SCODES_FACTS")
    if override:
        try:
            with open(override, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeError) as exc:
            raise FactFileError(f"{override}: {getattr(exc, 'strerror', None) or exc}") from None
        return _parsed_facts(text, override)
    text = resources.files("scodes").joinpath("data/facts.tsv").read_text(encoding="utf-8")
    return _parsed_facts(text, "facts.tsv")


@functools.lru_cache(maxsize=8)
def _parsed_facts(text: str, source: str) -> FactTable:
    """`FactTable.from_tsv`, kept per text and source name: a table is never
    changed once built, so every engine can share it.  A malformed table
    raises each time, as nothing is kept for it."""
    return FactTable.from_tsv(text, source)


# -- standalone upper bounds --------------------------------------------------


def _check_query(q: int, n: int, d: int, k: int) -> None:
    """ValueError unless q is a prime power, d >= 1 and 0 <= k <= n."""
    _factor_prime_power(q)
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")


def _norm(n: int, d: int, k: int) -> tuple[int, int, int]:
    """Normalize to k <= n/2 and even d (subspace distances are even)."""
    k = min(k, n - k)
    return n, d + (d % 2), k


def sphere_packing(q: int, n: int, d: int, k: int) -> BoundResult:
    _check_query(q, n, d, k)
    n, d, k = _norm(n, d, k)
    radius = (d // 2 - 1) // 2
    denom = sum(
        q ** (i * i) * gauss_binomial(k, i, q) * gauss_binomial(n - k, i, q)
        for i in range(radius + 1)
    )
    value = gauss_binomial(n, k, q) // denom
    return BoundResult(value, "sphere-packing", "ball-covering count in the Grassmann graph")


def singleton(q: int, n: int, d: int, k: int) -> BoundResult:
    _check_query(q, n, d, k)
    n, d, k = _norm(n, d, k)
    value = gauss_binomial(n - d // 2 + 1, max(k, n - k), q)
    return BoundResult(value, "singleton", "iterated puncturing")


# `anticode` takes the Gaussian binomial function as `binomial`: the bound
# engine passes its memo.


def anticode(q: int, n: int, d: int, k: int, binomial=gauss_binomial) -> BoundResult:
    _check_query(q, n, d, k)
    n, d, k = _norm(n, d, k)
    divisor = binomial(max(k, n - k) + d // 2 - 1, d // 2 - 1, q)
    value = binomial(n, k, q) // divisor
    return BoundResult(value, "anticode", "largest-anticode quotient")


# -- partial-spread bounds -----------------------------------------------------

# (q, k, r) -> additive constant c in the bound q^k * l + c,
# l = (q^(n-k) - q^r)/(q^k - 1); parametric series from exhaustive and
# divisible-set analyses in the partial-spread literature.
_PS_SERIES: dict[tuple[int, int, int], int] = {
    (2, 4, 3): 4,
    (2, 6, 4): 8,
    (2, 6, 5): 18,
    (3, 4, 3): 14,
    (3, 5, 3): 13,
    (3, 5, 4): 44,
    (3, 6, 4): 41,
    (3, 6, 5): 133,
    (3, 7, 4): 40,
    (4, 4, 2): 6,
    (4, 5, 3): 32,
    (4, 6, 3): 30,
    (4, 6, 5): 548,
    (4, 7, 4): 128,
    (5, 5, 2): 7,
    (5, 5, 4): 329,
    (5, 6, 3): 61,
    (5, 6, 4): 316,
    (7, 5, 4): 1246,
    (7, 6, 2): 15,
    (8, 4, 3): 264,
    (8, 5, 2): 25,
    (8, 6, 2): 21,
    (9, 3, 2): 41,
    (9, 5, 3): 365,
}


def _floor_theta(q: int, k: int, r: int) -> int:
    """floor((sqrt(D) - C) / 2) = (isqrt(D) - C) // 2, as C is an integer;
    never negative, as D - C^2 = 4(q^r - 1)(q^k - q^r) >= 0."""
    D = 1 + 4 * q**k * (q**k - q**r)
    C = 2 * q**k - 2 * q**r + 1
    return (math.isqrt(D) - C) // 2


def _ceil_lambda_term(lam: int, inner: int) -> Optional[int]:
    """ceil(lam - 1/2 - sqrt(1 + 4 lam inner)/2), exact; None if the
    radicand is negative."""
    E = 1 + 4 * lam * inner
    if E < 0:
        return None
    j = lam - (1 + math.isqrt(E)) // 2 - 2
    # smallest integer j with 2(lam - j) - 1 <= sqrt(E)
    while True:
        w = 2 * (lam - j) - 1
        if w <= 0 or w * w <= E:
            return j
        j += 1


def partial_spread_upper(q: int, n: int, k: int) -> BoundResult:
    """Tightest classical upper bound for partial k-spreads in GF(q)^n.

    Two rules that can never be the least are no candidates: the point-count
    quotient floors to sigma_base, which Drake-Freeman undercuts
    (`_floor_theta` >= 0), and the binary r = 2 series holds only where
    tail-count has z = 0 and the same value, sigma_base - 3."""
    _check_query(q, n, 2 * k, k)
    if not 1 <= k <= n - k:
        raise ValueError("need 1 <= k <= n - k")
    t, r = divmod(n, k)
    if r == 0:
        value = (q**n - 1) // (q**k - 1)
        return BoundResult(value, "spread", "spreads exist iff k divides n")
    sigma_base = sum(q ** (s * k + r) for s in range(t))
    l = (q ** (n - k) - q**r) // (q**k - 1)
    z_fixed = gauss_int(r, q) + 1 - k
    z = max(0, z_fixed)
    rule = "partial-spread:tail-count" if z == 0 else "partial-spread:tail-count-general"
    candidates = [BoundResult(sigma_base - (q**r - 1) + z * (q - 1), rule,
                              "hole-set divisibility analysis"),
                  BoundResult(sigma_base - _floor_theta(q, k, r) - 1,
                              "partial-spread:drake-freeman", "nets and spreads")]
    if z_fixed >= 0:
        best_param = None
        for y in range(max(r, 2), k + 1):
            lam = q**y
            term = _ceil_lambda_term(lam, lam - (z_fixed + y - 1) * (q - 1) - 1)
            if term is None:
                continue
            val = l * q**k + term
            if best_param is None or val < best_param[0]:
                best_param = (val, y)
        if best_param is not None:
            candidates.append(BoundResult(best_param[0], "partial-spread:parametric",
                                          f"lambda = q^{best_param[1]}"))
    c = _PS_SERIES.get((q, k, r))
    if c is not None:
        candidates.append(BoundResult(l * q**k + c, "partial-spread:series",
                                      "published parametric series"))
    best = min(candidates, key=lambda b: b.value)
    return BoundResult(best.value, best.rule, best.citation, tuple(candidates))


def partial_spread_lower(q: int, n: int, k: int) -> BoundResult:
    _check_query(q, n, 2 * k, k)
    if not 1 <= k <= n - k:
        raise ValueError("need 1 <= k <= n - k")
    r = n % k
    value = (q**n - q**k * (q**r - 1) - 1) // (q**k - 1)
    rule = "spread" if r == 0 else "partial-spread:block-construction"
    return BoundResult(value, rule, "block-skeleton multilevel construction")


# -- linear programming bound --------------------------------------------------


def grassmann_valency(q: int, n: int, k: int, i: int) -> int:
    """Number of k-spaces meeting a fixed k-space in dimension k - i."""
    return q ** (i * i) * gauss_binomial(k, i, q) * gauss_binomial(n - k, i, q)


def grassmann_eigenvalue(q: int, n: int, k: int, i: int, j: int) -> int:
    """Eigenvalue of the distance-i relation on the j-th eigenspace of the
    q-Johnson association scheme."""
    total = 0
    for m in range(i + 1):
        total += (
            (-1) ** (i - m)
            * q ** (math.comb(i - m, 2) + j * m)
            * gauss_binomial(k - m, k - i, q)
            * gauss_binomial(k - j, m, q)
            * gauss_binomial(n - k - j + m, m, q)
        )
    return total


def _simplex_max(c: list[Fraction], A: list[list[Fraction]], b: list[Fraction]) -> Fraction:
    """Maximize c.x subject to A x <= b, x >= 0 (b >= 0), Bland's rule."""
    m, nvar = len(A), len(c)
    # tableau rows: [A | I | b]; objective row: [-c | 0 | 0]
    T = [list(A[i]) + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    z = [-x for x in c] + [Fraction(0)] * (m + 1)
    basis = [nvar + i for i in range(m)]
    while True:
        enter = next((j for j in range(nvar + m) if z[j] < 0), None)
        if enter is None:
            return z[-1]
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise ValueError("linear program is unbounded")
        _, row = best
        piv = T[row][enter]
        T[row] = [x / piv for x in T[row]]
        for i in range(m):
            if i != row and T[i][enter]:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[row])]
        if z[enter]:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, T[row])]
        basis[row] = enter


def _lp_rows(q: int, n: int, d: int, k: int) -> list[list[Fraction]]:
    """The linear program's constraint rows, one per eigenspace j in [1, k]:
    the coefficients -Q_j(i)/v_i of x_i for i in [d/2, k], each row's sum
    bounded by 1.  v_i = q^(i^2) [k i]_q [n-k i]_q are the
    association-scheme valencies (`grassmann_valency`)."""
    idxs = range(d // 2, k + 1)
    v = [grassmann_valency(q, n, k, i) for i in idxs]
    return [[Fraction(-grassmann_eigenvalue(q, n, k, i, j), vi) for i, vi in zip(idxs, v)]
            for j in range(1, k + 1)]


def _anticode_ratio(q: int, n: int, d: int, k: int) -> Fraction:
    """[n k]_q / [n-k+d/2-1 d/2-1]_q, the value the anticode witness targets."""
    return Fraction(gauss_binomial(n, k, q), gauss_binomial(n - k + d // 2 - 1, d // 2 - 1, q))


def lp_bound(q: int, n: int, d: int, k: int) -> BoundResult:
    """
    Exact-rational Delsarte linear programming bound on the q-Johnson
    scheme: maximize 1 + sum x_i subject to the dual-eigenvalue
    inequalities, solved by a small exact simplex.
    """
    _check_query(q, n, d, k)
    n, d, k = _norm(n, d, k)
    if not (2 <= d <= 2 * k and k >= 1):
        raise Inapplicable("LP bound needs 2 <= d <= 2 min(k, n-k)")
    A = _lp_rows(q, n, d, k)
    total = 1 + _simplex_max([Fraction(1)] * len(A[0]), A, [Fraction(1)] * k)
    value = total.numerator // total.denominator
    return BoundResult(value, "linear-programming",
                       "Delsarte LP on the q-Johnson scheme, exact simplex")


def lp_anticode_witness(q: int, n: int, d: int, k: int) -> dict[int, Fraction]:
    """
    Recursively transported primal vector targeting the anticode ratio:
    z_0 = 1, z_i = x_i [k]_q / [k-i]_q from the (n-1, k-1) witness, and the
    top coordinate absorbs the remaining mass.
    """
    ratio = _anticode_ratio(q, n, d, k)
    if k == d // 2:
        return {0: Fraction(1), k: ratio - 1}
    prev = lp_anticode_witness(q, n - 1, d, k - 1)
    z = {i: x * Fraction(gauss_int(k, q), gauss_int(k - i, q)) for i, x in prev.items()}
    z[k] = ratio - sum(z.values())
    return z


def lp_witness_feasible(q: int, n: int, d: int, k: int) -> bool:
    """Check the transported witness against the exact LP constraints and
    the anticode target value."""
    _check_query(q, n, d, k)
    n, d, k = _norm(n, d, k)
    z = lp_anticode_witness(q, n, d, k)
    if any(x < 0 for x in z.values()):
        return False
    x = [z.get(i, 0) for i in range(d // 2, k + 1)]
    if any(sum(a * xi for a, xi in zip(row, x)) > 1 for row in _lp_rows(q, n, d, k)):
        return False
    return sum(z.values()) == _anticode_ratio(q, n, d, k)


# -- the recursive engine --------------------------------------------------------


def _ef_achievable_size(q: int, n: int, k: int, d: int) -> int:
    """Sum of diagram-code sizes over a greedy skeleton: the dot-count bound
    q^nu where `fdrm_construct` meets it without search, conservatively 1
    elsewhere (nu = 0).  Each nu is the greedy's own score
    (`constructions._skeleton`); a diagram is built only for delta >= 3,
    since `_fdrm_meets_bound` holds for every diagram at delta <= 2.

    The engine does not call this: it books the same sum from the rows of
    `data/multilevel.tsv` (`_multilevel_size`), and this is the definition
    those rows are checked against."""
    delta = d // 2
    chosen, nus = _skeleton(n, k, d)
    if delta > 2:
        nus = [nu if _fdrm_meets_bound(ferrers_of(_pivot_vector(u, n)), delta) else 0
               for u, nu in zip(chosen, nus)]
    return sum(map(q.__pow__, nus))


@functools.cache
def _multilevel_table() -> Mapping[tuple[int, int, int], tuple[tuple[int, int], ...]]:
    """The packaged `data/multilevel.tsv` as (n, k, d) -> ((nu, count), ...),
    the multiset of exponents `_ef_achievable_size` sums at that cell.  Read
    once per process, on first use, and never changed, so every engine
    shares it."""
    text = resources.files("scodes").joinpath("data/multilevel.tsv").read_text(encoding="utf-8")
    rows = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            n, k, d, terms = line.split("\t")
            rows[int(n), int(k), int(d)] = tuple(tuple(map(int, t.split(":"))) for t in terms.split())
    return MappingProxyType(rows)


def _multilevel_size(q: int, n: int, k: int, d: int) -> Optional[int]:
    """`_ef_achievable_size(q, n, k, d)` from the packaged table, or None
    for a cell the table does not hold."""
    row = _multilevel_table().get((n, k, d))
    if row is None:
        return None
    return sum(count * q**nu for nu, count in row)


def _johnson_improved(q: int, n: int, d: int, k: int, inner: BoundResult) -> BoundResult:
    """The improved Johnson bound on A(n, d; k) from A(n-1, d; k-1) <= inner."""
    value = sharp_floor(gauss_int(n, q) * inner.value, gauss_int(k, q), q, k - 1)
    return BoundResult(value, "johnson-II-improved",
                       "sharpened rounding via divisible multisets", (inner,))


def _best_lower(candidates: Sequence[BoundResult]) -> BoundResult:
    """The lower node over these candidates: the greatest decides; on a tie
    a computed construction beats an injected fact, then the first listed
    wins."""
    best = max(candidates, key=lambda b: (b.value, 0 if b.rule.startswith("fact") else 1))
    return BoundResult(best.value, best.rule, best.citation, tuple(candidates), best.assumptions)


# How many reverse-Johnson steps (n, k) <- (n+1, k+1) a lower query may take.
_REVERSE_JOHNSON_DEPTH = 2


class BoundEngine:
    """Memoized best-known upper/lower bounds with provenance trees.

    An engine holds three memos: upper and lower bound nodes and Gaussian
    binomials.  The binomial memo serves the anticode bound of `best_upper`
    and the standalone Ahlswede-Aydinian rule (`ahlswede_aydinian`), which
    `best_upper` does not list.  A fresh engine starts with empty memos.
    Engines share only tables that are never changed once read: the parsed
    fact table (`_parsed_facts`) and the multilevel table
    (`_multilevel_table`).

    A lower node is keyed by its cell and its reverse-Johnson depth.  Only
    the depth-0 node evaluates the cell's constructions and facts; a node
    at depth > 0 wraps it, adding only its reverse-Johnson candidate, so
    each cell's multilevel lookup, improved-linkage loop and fact lookup
    run once per engine whatever the depths that reach it.

    Bound nodes run as generators on an explicit stack (`_evaluate`), so a
    query's Python stack depth does not grow with n or k."""

    def __init__(self, use_facts: bool = True):
        self.facts = load_default_facts() if use_facts else FactTable()
        self.use_facts = use_facts
        self._upper: dict = {}
        self._lower: dict = {}
        self._binomials: dict = {}

    def _gauss_binomial(self, n: int, k: int, q: int) -> int:
        """[n k]_q, memoized.  A miss whose predecessor [n-1 k-1]_q is held
        costs one multiply and one exact divide: the improved Johnson chain
        evaluates its bottom first, so each of its binomials is such a step."""
        if 0 <= k <= n:
            k = min(k, n - k)
        key = (n, k, q)
        value = self._binomials.get(key)
        if value is None:
            prev = self._binomials.get((n - 1, k - 1, q)) if 0 < k <= n else None
            if prev is None:
                value = gauss_binomial(n, k, q)
            else:
                value = prev * (q**n - 1) // (q**k - 1)
            self._binomials[key] = value
        return value

    # ---- shared conventions

    def _convention(self, q: int, n: int, d: int, k: int) -> Optional[BoundResult]:
        if n < 0 or k < 0 or k > n:
            return BoundResult(0, "convention:void", "no such subspaces")
        kk = min(k, n - k)
        if d > 2 * kk:
            return BoundResult(1, "convention:single", "distance exceeds the diameter")
        if d <= 2:
            return BoundResult(gauss_binomial(n, k, q), "full-grassmannian",
                               "distance 2 admits every subspace")
        return None

    def _fact_results(self, q, n, d, k, kinds):
        """Node step: the applicable table facts, each as a result."""
        out = []
        for f in self.facts.lookup(q, n, d, k, kinds):
            value = qpoly_eval(f.value_poly, q)
            children = ()
            if f.extra_term is not None:
                # additive A-terms only occur in lower-bound formulas
                sub = yield self._lower_request(q, *f.extra_term, _REVERSE_JOHNSON_DEPTH)
                value += sub.value
                children = (sub,)
            out.append(BoundResult(value, f"fact:{f.kind}", f.citation, children,
                                   ("injected table fact",)))
        return out

    # ---- node evaluation

    def _upper_request(self, q: int, n: int, d: int, k: int):
        return self._upper, self._upper_node, (q, n, d + (d % 2), min(k, n - k) if 0 <= k <= n else k)

    def _lower_request(self, q: int, n: int, d: int, k: int, rev_depth: int):
        return (self._lower, self._lower_node,
                (q, n, d + (d % 2), min(k, n - k) if 0 <= k <= n else k, rev_depth))

    def _evaluate(self, request) -> BoundResult:
        """The result of a node, evaluating first every node below it that
        no memo holds yet.

        A node is a generator over its normalized key: it yields a request
        (memo, node, key) for each child and is sent the child's result.
        Suspended nodes wait on an explicit stack, so the Python stack stays
        flat however deep the recursion in n and k goes.

        A child's key has a smaller reverse-Johnson depth than its parent's,
        or the same depth and a smaller n, except for a fact's A-term, which
        is asked at the full depth; so only the fact table can make a node
        depend on itself, and that raises FactFileError."""
        memo, node, key = request
        result = memo.get(key)
        if result is not None:
            return result
        stack = [(memo, key, node(*key))]
        active = {key}
        while stack:
            memo, key, pending = stack[-1]
            send = pending.send
            while True:  # resume the top node until it finishes or misses
                try:
                    child_memo, child_node, child_key = send(result)
                except StopIteration as done:
                    stack.pop()
                    active.discard(key)
                    result = memo[key] = done.value
                    break
                result = child_memo.get(child_key)
                if result is None:
                    if child_key in active:
                        raise FactFileError(f"bound {child_key} depends on itself (check the fact table)")
                    active.add(child_key)
                    stack.append((child_memo, child_key, child_node(*child_key)))
                    break
        return result

    # ---- upper bounds

    def best_upper(self, q: int, n: int, d: int, k: int) -> BoundResult:
        """The least of the anticode and improved Johnson bounds, the
        partial-spread bound at d = 2 min(k, n-k) and the applicable table
        facts.

        A rule that can never be the least is no candidate:
        - Ahlswede-Aydinian (`ahlswede_aydinian`) pulls whole lower-distance
          layers into the recursion and was never the least in 2350 cells
          (q=2 with d=4, 6, 8 up to n=70, 40, 30; q=3 with d=4, 6 up to
          n=40, 30; q=4, d=4 up to n=25; q=5, d=6 up to n=20; with and
          without facts): measured, not proved (arXiv:2112.11766).
        - Sphere-packing divides by a Grassmann-graph ball of diameter at
          most d/2 - 1, so by no more than the anticode does.
        - Singleton: with m = k - d/2 + 1, each factor
          (q^(n-i) - 1)/(q^(k-i) - 1) of the unfloored anticode bound
          [n m]_q / [k m]_q is below that of Singleton's [n-d/2+1 m]_q.
        Leaving a valid upper bound out of a minimum can only weaken the
        result, never make it wrong.

        Raises ValueError unless q is a prime power."""
        _factor_prime_power(q)
        return self._evaluate(self._upper_request(q, n, d, k))

    def _upper_node(self, q, n, d, k):
        conv = self._convention(q, n, d, k)
        if conv is not None:
            return conv
        inner = yield self._upper_request(q, n - 1, d, k - 1)
        candidates = [anticode(q, n, d, k, self._gauss_binomial), _johnson_improved(q, n, d, k, inner)]
        if d == 2 * k:
            candidates.append(partial_spread_upper(q, n, k))
        candidates += yield from self._fact_results(q, n, d, k, ("exact", "upper"))
        # ties prefer exact spread values, then computed rules, then facts
        best = min(candidates, key=lambda b: (b.value, 0 if b.rule == "spread" else
                                              2 if b.rule.startswith("fact") else 1))
        return BoundResult(best.value, best.rule, best.citation, tuple(candidates), best.assumptions)

    def johnson_II(self, q: int, n: int, d: int, k: int) -> BoundResult:
        n, d, k = _norm(n, d, k)
        inner = self.best_upper(q, n - 1, d, k - 1)
        value = (q**n - 1) * inner.value // (q**k - 1)
        return BoundResult(value, "johnson-II", "point-shortening recursion", (inner,))

    def johnson_II_improved(self, q: int, n: int, d: int, k: int) -> BoundResult:
        n, d, k = _norm(n, d, k)
        return _johnson_improved(q, n, d, k, self.best_upper(q, n - 1, d, k - 1))

    def ahlswede_aydinian(self, q: int, n: int, d: int, k: int) -> BoundResult:
        n, d, k = _norm(n, d, k)
        r = d // 2
        best: Optional[tuple[int, int, int, BoundResult]] = None
        numerator = self._gauss_binomial(n, k, q)
        for t in range(0, r):
            for m in range(max(k - t, 1), n - t + 1):
                if (m, 2 * r - 2 * t, k - t) == (n, d, k):
                    continue
                inner = self.best_upper(q, m, 2 * r - 2 * t, k - t)
                value = numerator * inner.value // count_large_intersection(n, m, k, t, q)
                if best is None or value < best[0]:
                    best = (value, t, m, inner)
        if best is None:
            return BoundResult(numerator, "ahlswede-aydinian", "no admissible grid point")
        value, t, m, inner = best
        return BoundResult(value, "ahlswede-aydinian", f"t={t}, m={m}", (inner,))

    # ---- lower bounds

    def best_lower(self, q: int, n: int, d: int, k: int) -> BoundResult:
        """The greatest of the constructive lower bounds and the applicable
        table facts; raises ValueError unless q is a prime power.

        Improved linkage at m = k books q^((n-k)(k-d/2+1)) + A(n-d/2, d; k),
        more than a lifted MRD code or a single word, so neither is listed."""
        _factor_prime_power(q)
        return self._evaluate(self._lower_request(q, n, d, k, _REVERSE_JOHNSON_DEPTH))

    def _lower_node(self, q, n, d, k, rev_depth):
        """At depth 0: the constructive candidates and the facts.  The
        multilevel candidate is the cell's row of `data/multilevel.tsv`
        summed at q (`_multilevel_size`); a cell the table does not hold has
        none, and no skeleton is built.  Above it:
        the cell's depth-0 node, with the reverse-Johnson candidate from
        (n+1, k+1) between its computed candidates and its facts when that
        cell has k+1 <= n-k, else the depth-0 node itself."""
        conv = self._convention(q, n, d, k)
        if conv is not None:
            return conv
        if rev_depth > 0:
            base = yield self._lower_request(q, n, d, k, 0)
            if 2 * k + 1 > n:
                return base
            inner = yield self._lower_request(q, n + 1, d, k + 1, rev_depth - 1)
            value = -((-(q ** (k + 1) - 1) * inner.value) // (q ** (n + 1) - 1))
            reverse = BoundResult(value, "reverse-johnson", "reverted shortening", (inner,))
            cut = sum(not c.rule.startswith("fact") for c in base.children)  # the facts come last
            return _best_lower(base.children[:cut] + (reverse,) + base.children[cut:])
        candidates = []
        if d == 2 * k:
            candidates.append(partial_spread_lower(q, n, k))
        multilevel = _multilevel_size(q, n, k, d)
        if multilevel is not None:
            candidates.append(BoundResult(multilevel, "multilevel-greedy",
                                          "greedy skeleton with realizable diagram codes"))
        candidates.append((yield from self._improved_linkage_lower(q, n, d, k)))
        candidates += yield from self._fact_results(q, n, d, k, ("exact", "lower"))
        return _best_lower(candidates)

    def _improved_linkage_lower(self, q, n, d, k):
        """The best split m in [k, n-k], the least on a tie: A(m, d; k) times
        |MRD(k x (n-m), d/2)| = q^((n-m)(k-d/2+1)) plus A(n-m+k-d/2, d; k).
        The splits run from m = n-k down, so the MRD size grows by one
        multiplication per split, and a child the memo holds is read from
        it without a round trip through `_evaluate`."""
        memo, node = self._lower, self._lower_node
        delta = d // 2
        step = q ** (k - delta + 1)
        size = step**k
        best = None
        for m in range(n - k, k - 1, -1):  # never empty: the node's key has k <= n - k
            key = (q, m, d, k if 2 * k <= m else m - k, 0)
            first = memo.get(key)
            if first is None:
                first = yield memo, node, key
            rest = n - m + k - delta
            key = (q, rest, d, k if 2 * k <= rest else rest - k, 0)
            second = memo.get(key)
            if second is None:
                second = yield memo, node, key
            value = first.value * size + second.value
            if best is None or value >= best[0]:
                best = (value, m, first, second)
            size *= step
        value, m, first, second = best
        return BoundResult(value, "improved-linkage", f"split m={m}", (first, second))

    # ---- combined

    def bounds(self, q: int, n: int, d: int, k: int) -> tuple[BoundResult, BoundResult]:
        lo = self.best_lower(q, n, d, k)
        hi = self.best_upper(q, n, d, k)
        if lo.value > hi.value:
            error = FactFileError if lo.uses_facts() or hi.uses_facts() else RuntimeError
            raise error("inconsistent bounds:\nlower:\n" + lo.render() + "\nupper:\n" + hi.render())
        return lo, hi

    # ---- mixed-dimension codes

    def mdc_exact_small(self, q: int, n: int, d: int) -> Optional[int]:
        """Closed-form maximum sizes of mixed-dimension codes where known."""
        if n < 1 or d < 1:
            raise ValueError("need n, d >= 1")
        if d > n:
            return 1
        if d == 1:
            return sum(gauss_binomial(n, i, q) for i in range(n + 1))
        if d == 2:
            return sum(gauss_binomial(n, i, q) for i in range(0, n + 1, 2))
        if d == n:
            return q ** (n // 2) + 1 if n % 2 == 0 else 2
        if d == n - 1:
            return q ** (n // 2) + 1 if n % 2 == 0 else q ** ((n + 1) // 2) + 1
        if d == n - 2:
            if n == 5:
                return 2 * q**3 + 2
            if n == 6 and q == 2:
                return 77
            if n == 7 and q == 2:
                return 34
        return None

    def mdc_layer_bounds(self, q: int, n: int, d: int) -> tuple[BoundResult, BoundResult]:
        dd = 2 * ((d + 1) // 2)
        lo_children = []
        lo_val = 0
        anchor = (n // 2) % d
        for k in range(0, n + 1):
            if k % d == anchor:
                sub = self.best_lower(q, n, dd, k)
                lo_children.append(sub)
                lo_val += sub.value
        hi_children = []
        hi_val = 2
        for k in range((d + 1) // 2, n - (d + 1) // 2 + 1):
            sub = self.best_upper(q, n, dd, k)
            hi_children.append(sub)
            hi_val += sub.value
        lo = BoundResult(lo_val, "mdc-layer-sum", "spaced dimension layers", tuple(lo_children))
        hi = BoundResult(hi_val, "mdc-layer-sum", "two extremes plus middle layers", tuple(hi_children))
        return lo, hi

    def mdc_bounds(self, q: int, n: int, d: int) -> tuple[BoundResult, BoundResult]:
        exact = self.mdc_exact_small(q, n, d)
        if exact is not None:
            res = BoundResult(exact, "mdc-exact", "closed form")
            return res, res
        return self.mdc_layer_bounds(q, n, d)


def best_upper(q: int, n: int, d: int, k: int) -> BoundResult:
    """`BoundEngine().best_upper` on a fresh engine."""
    return BoundEngine().best_upper(q, n, d, k)


def best_lower(q: int, n: int, d: int, k: int) -> BoundResult:
    """`BoundEngine().best_lower` on a fresh engine."""
    return BoundEngine().best_lower(q, n, d, k)
