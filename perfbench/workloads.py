"""The four benchmark workloads.

A workload makes its seeded inputs once (`prepare`) and then runs rounds
(`run_round`).  A round repeats the workload's whole job on the same
inputs.  It records the time of each unit of work (one phase -- construct,
io, verify, table or query -- of one code, window or query) in a `Round`,
in seconds and against a reference run, and checks every output against
the golden values frozen from the seed commit (see freeze_golden.py).
Input generation and output checks run outside every timed unit.

Why these four (see README.md for the layer predictions):
- assemble-q2: the headline `construct assemble` + `verify` flow; nearly
  all time is the q=2 bit-packed distance kernel.
- verify-gfq: exact scans over GF(3), GF(4), GF(8), GF(9), the generic
  rref path with prime- and extension-field arithmetic.
- build-large: the same layers the other way round, creating and parsing
  subspaces (Gabidulin evaluation, constructions, `.scode` reading).
- bounds: tables and cold deep queries of the bound engine; no codes.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stdout


class Mismatch(Exception):
    pass


class Check:
    @staticmethod
    def require(cond, message):
        if not cond:
            raise Mismatch(message)


def reference_work():
    """Fixed pure-Python work (tuples, small ints, dict updates), about 2 ms,
    that gauges the host's current speed; it calls nothing in the library."""
    table = {}
    acc = 0
    for i in range(1500):
        row = tuple((i * j + 7) % 11 for j in range(6))
        acc ^= hash(row) & 0xFFFF
        table[row] = table.get(row, 0) + 1
    return acc + len(table)


def reference_s():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Round:
    """Unit times, work counts and operation outcomes of one round.

    Each timed block is bracketed by two runs of `reference_work`; besides
    its time in seconds, the block's time over the mean of the two
    reference times is added to its unit in `unit_ref`.  On a shared host
    the CPU's speed can drift by a quarter from minute to minute (seen on a
    2-vCPU virtual machine); the reference follows the drift, so `unit_ref`
    does not."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.unit_s = defaultdict(float)  # (phase, unit) -> seconds
        self.unit_ref = defaultdict(float)  # (phase, unit) -> multiples of the reference time
        self.counts = defaultdict(int)
        self.attempted = 0
        self.failed = 0

    @property
    def wall_s(self):
        return sum(self.unit_s.values())

    @contextmanager
    def timed(self, phase, unit):
        tracer = self.tracer
        kernel_calls = _distance_calls(tracer)
        before = reference_s()
        with tracer.span("phase." + phase) if tracer else nullcontext():
            t0 = time.perf_counter()
            yield
            dt = time.perf_counter() - t0
        self.unit_s[(phase, unit)] += dt
        self.unit_ref[(phase, unit)] += 2 * dt / (before + reference_s())
        if phase == "verify":
            self.counts["verify_kernel_calls"] += _distance_calls(tracer) - kernel_calls

    def untimed(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    @contextmanager
    def op(self, label):
        """One operation: it fails if it raises or a requirement is not met."""
        self.attempted += 1
        try:
            yield Check
        except Exception as exc:
            self.failed += 1
            print(f"FAILED {label}: {type(exc).__name__}: {exc}", file=sys.stderr)


def _distance_calls(tracer):
    st = tracer.stats.get("spaces.distance") if tracer else None
    return st.calls if st else 0


def code_digest(code):
    """SHA-256 over the sorted canonical generator matrices of a code."""
    h = hashlib.sha256()
    for entries in sorted(w.rref.entries for w in code.words):
        h.update(repr(entries).encode())
    return h.hexdigest()


def random_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _permuted(lib, code, perm):
    words = tuple(lib.spaces.permute_columns(w, perm) for w in code.words)
    return lib.constructions.Cdc(code.q, code.n, code.k, code.d, words)


def _same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def code_round(lib, rnd, workdir, label, build, golden, transform, verify, cache):
    """Build a code and check it; transform it (once per run, untimed);
    write and read its `.scode` and check the round trip; then verify the
    read-back code."""
    path = os.path.join(workdir, label + ".scode")
    code = written = back = None
    with rnd.op(f"{label}: construct") as check:
        with rnd.timed("construct", label):
            code = build()
        rnd.counts["words"] += len(code.words)
        with rnd.untimed():
            check.require(len(code.words) == golden["size"],
                          f"{len(code.words)} words, expected {golden['size']}")
            check.require(code_digest(code) == golden["digest"], "codewords differ from golden")
    with rnd.op(f"{label}: write") as check:
        if label not in cache:
            with rnd.untimed():
                cache[label] = transform(code)
        written = cache[label]
        with rnd.timed("io", label):
            lib.cli.write_code_file(path, written)
        rnd.counts["bytes"] += os.path.getsize(path)
    with rnd.op(f"{label}: read") as check:
        with rnd.timed("io", label):
            back = lib.cli.read_code_file(path)
        rnd.counts["bytes"] += os.path.getsize(path)
        with rnd.untimed():
            check.require(len(back.words) == len(written.words)
                          and set(back.words) == set(written.words), "read-back codewords differ")
            lib.cli.write_code_file(path + ".again", back)
            check.require(_same_bytes(path, path + ".again"), "rewrite is not byte-identical")
    with rnd.op(f"{label}: verify") as check:
        verify(back, written, check, label)


def exact_scan(lib, rnd, code, unit, expected_d, check):
    with rnd.timed("verify", unit):
        report = lib.verify.min_distance(code, "exact")
    m = len(code.words)
    rnd.counts["verify_pairs"] += m * (m - 1) // 2
    rnd.counts["certified_pairs"] += m * (m - 1) // 2
    check.require(report.certifies and report.min_distance == expected_d,
                  f"exact min distance {report.min_distance}, expected {expected_d}")


def assemble_q2(lib, par):
    """The 4797-word code as `scodes construct assemble --q 2` builds it."""
    c = lib.constructions
    w1 = c.lifted_mrd(2, 8, 4, 4)
    w2 = c.coset_construction(par, par, lib.rankmetric.rect_mrd(2, 2, 2, 2), 2, 2)
    w3 = c.single_codeword(2, 8, 4, 4, position="right")
    return c.combine([w1, w2, w3])


# The exact scan of all 11.5M pairs takes about 20 s in one call, and on a
# shared 2-vCPU virtual machine one such call varied by +-18% from run to
# run.  The scan is
# therefore timed as exact scans of seeded windows of the read-back code,
# each short enough (about 0.15 s) to repeat in every round.  Each window
# holds the golden witness pair, so its minimum distance is exactly the
# code's.
WINDOWS = 8
WINDOW_WORDS = 400


class AssembleQ2:
    """The paper's 4797-word GF(2)^8, d=4 code, its `.scode` round trip and
    exact scans over seeded windows of it."""

    name = "assemble-q2"

    def prepare(self, rng, golden):
        g = golden["assemble-q2"]
        windows = [sorted(set(rng.sample(range(g["size"]), WINDOW_WORDS - 2)) | set(g["witness"]))
                   for _ in range(WINDOWS)]
        return {"perm": random_permutation(rng, 8), "windows": windows, "cache": {}}

    def run_round(self, lib, par, golden, inputs, rnd, workdir):
        g = golden["assemble-q2"]

        def verify(back, written, check, label):
            same = {w: w for w in back.words}
            for i, idx in enumerate(inputs["windows"]):
                window = lib.constructions.Cdc(back.q, back.n, back.k, back.d,
                                               tuple(same[written.words[j]] for j in idx))
                with rnd.op(f"{label}: window {i}") as window_check:
                    exact_scan(lib, rnd, window, f"window{i}", g["min_distance"], window_check)

        code_round(lib, rnd, workdir, "assemble-q2", lambda: assemble_q2(lib, par), g,
                   lambda code: _permuted(lib, code, inputs["perm"]), verify, inputs["cache"])


# (q, n, words scanned): k=2 lifted MRD codes with d=4.  With k=2 every
# pair of distinct words is at distance 4, so each subset has minimum
# distance exactly 4.  Sizes give about 0.5 s of scanning per field.
GFQ_SUBSETS = ((3, 8, 160), (4, 7, 160), (8, 6, 160), (9, 5, 70))


class VerifyGfq:
    """Exact scans of seeded subsets of k=2 lifted MRD codes over q > 2."""

    name = "verify-gfq"

    def prepare(self, rng, golden):
        subsets = {(q, n): sorted(rng.sample(range(golden["verify-gfq"][f"q{q}n{n}"]["size"]), m))
                   for q, n, m in GFQ_SUBSETS}
        return {"subsets": subsets, "cache": {}}

    def run_round(self, lib, par, golden, inputs, rnd, workdir):
        c = lib.constructions

        def verify(back, written, check, label):
            exact_scan(lib, rnd, back, label, 4, check)

        for q, n, _ in GFQ_SUBSETS:
            def subset(code, idx=inputs["subsets"][(q, n)]):
                return c.Cdc(code.q, code.n, code.k, code.d, tuple(code.words[i] for i in idx))

            code_round(lib, rnd, workdir, f"lifted_mrd-q{q}n{n}", lambda q=q, n=n: c.lifted_mrd(q, n, 2, 4),
                       golden["verify-gfq"][f"q{q}n{n}"], subset, verify, inputs["cache"])


# The CLI samples 20000 pairs; over GF(3) that takes about 1 s a code, so
# fewer are drawn here to keep every timed unit short.
SAMPLED_PAIRS = 5000

# (label, ambient n, builder), each built as the CLI builds it.  Each code
# takes under 0.5 s to build, so a run repeats the round about ten times.
BUILD_LARGE = (
    ("lifted_mrd-2-9-3-4", 9, lambda lib: lib.constructions.lifted_mrd(2, 9, 3, 4)),
    ("linkage-2-9-3-4", 9, lambda lib: lib.constructions.linkage(
        lib.constructions.auto_cdc(2, 3, 4, 3), lib.constructions.auto_cdc(2, 6, 4, 3),
        lib.rankmetric.rect_mrd(2, 3, 6, 2))),
    ("lifted_mrd-3-7-3-4", 7, lambda lib: lib.constructions.lifted_mrd(3, 7, 3, 4)),
    ("echelon_ferrers-3-7-3-4", 7, lambda lib: lib.constructions.echelon_ferrers(
        lib.constructions.skeleton_greedy(3, 7, 3, 4), 3, 4)),
)


class BuildLarge:
    """Materialize four codes of 4096 to 6685 words, round-trip their files
    and run the sampled verification the CLI uses above --verify-cap."""

    name = "build-large"

    def prepare(self, rng, golden):
        return {"codes": {label: (random_permutation(rng, n), rng.randrange(2**31))
                          for label, n, _ in BUILD_LARGE},
                "cache": {}}

    def run_round(self, lib, par, golden, inputs, rnd, workdir):
        for label, _, build in BUILD_LARGE:
            perm, sample_seed = inputs["codes"][label]

            def verify(back, written, check, label, sample_seed=sample_seed):
                with rnd.timed("verify", label):
                    report = lib.verify.min_distance(back, "sampled", sample_count=SAMPLED_PAIRS,
                                                     seed=sample_seed)
                rnd.counts["verify_pairs"] += SAMPLED_PAIRS
                check.require(report.mode == "sampled" and report.min_distance >= back.d,
                              f"sampled min distance {report.min_distance} below {back.d}")

            code_round(lib, rnd, workdir, label, lambda build=build: build(lib),
                       golden["build-large"][label], lambda code, perm=perm: _permuted(lib, code, perm),
                       verify, inputs["cache"])


# Every table and query takes at most about 0.6 s, so a run repeats them
# about ten times.
TABLES = ((2, 4, 12), (2, 6, 16), (3, 4, 11), (3, 8, 16))  # (q, d, n-max)
QUERIES = (("upper", 60, 30), ("upper", 70, 35), ("lower", 100, 50))  # q=2, d=4


def table_name(q, d, n_max):
    return f"table_q{q}_d{d}_n{n_max}.csv"


class Bounds:
    """`scodes table` runs sharing one engine each, then cold deep
    `scodes bound` queries, each on a fresh engine.  Inputs are fixed."""

    name = "bounds"

    def prepare(self, rng, golden):
        return {}

    def run_round(self, lib, par, golden, inputs, rnd, workdir):
        for q, d, n_max in TABLES:
            name = table_name(q, d, n_max)
            with rnd.op(name) as check:
                out = io.StringIO()
                with rnd.timed("table", name), redirect_stdout(out):
                    rc = lib.cli.main(["table", "--q", str(q), "--d", str(d), "--n-max", str(n_max),
                                       "--format", "csv"])
                check.require(rc == 0 and out.getvalue() == golden["tables"][name],
                              "table differs from golden")
        for direction, n, k in QUERIES:
            name = f"{direction}_{n}_{k}"
            with rnd.op(name) as check:
                with rnd.timed("query", name):
                    engine = lib.bounds.BoundEngine()
                    query = engine.best_upper if direction == "upper" else engine.best_lower
                    value = query(2, n, 4, k).value
                check.require(str(value) == golden["bounds"][name],
                              "bound value differs from golden")


WORKLOADS = {w.name: w for w in (AssembleQ2(), VerifyGfq(), BuildLarge(), Bounds())}
