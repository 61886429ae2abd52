"""
Command-line front end: bound queries with provenance trees, code
construction with automatic verification, code-file round-tripping,
best-bound tables, and the divisible-expansion helpers.  Every
verification, by `construct` before it writes a code or by `verify` on a
file, is the exact scan of `verify.min_distance`, which certifies the
minimum distance; the command line offers no sampled scan.

Code files (extension .scode) are line oriented, UTF-8, LF:

    SCODE 1
    q=<int> p=<int> e=<int> n=<int> k=<int> d=<int> count=<int> [mod=c0,...,ce]
    <k rows of n whitespace-separated integers in [0,q)>, blank line after
    each codeword; '#' starts a comment line.  Codewords are written in
    canonical order (sorted reduced-row-echelon generators); the one 0-space
    of a k=0 file has no rows.

The reader checks the magic line, the header (q a prime power p^e of its
own p and e, 0 <= k <= n, d even and positive), every row and the count.
The reader streams the file a line at a time (universal newlines, so a
CRLF file reads as its LF twin), and the writer writes a slice of lines at
a time, so neither holds the file's text whole.  Rows repeat across
words, so the reader parses and checks each distinct row line once per
file, with its leading column when the entry there is 1, and keeps one
pivots tuple per distinct pivot set, and the writer formats each distinct
row once; neither keeps anything between calls.  A word whose rows pass
the RREF shape check of `spaces` (leads strictly increase, each earlier
row is zero at every later lead) is its own RREF and is taken with those
leads as its pivots, as every word `write_code_file` writes is; any other
word goes through `Subspace.from_matrix`, so a file need not be in
canonical form.  A `mod=` header equal to the default modulus reads into
the cached GF(q).

Every command's help text, handler and arguments are declared once, in
`_COMMANDS`.  A call of `main` whose first argument names a command builds
that command's parser alone (prog `scodes <command>`, so its help and errors
read as before); leftover arguments are reported by the full parser of
`build_parser`, under its top-level usage line, and so is every other
argument list: none, `-h`, or an unknown command.  No parser is cached:
the command line serves one call per process, so a cache would only pay
back to callers of `main` inside one process.

Exit codes: 0 ok, 2 parameter error, 3 verification failure, 4 data-file
error.  Every malformed or unreadable code or fact file (the
table named by SCODES_FACTS), and every code file that cannot be written,
exits 4 with a `data error:` line, which names the file and, for a fact
file's malformed row, the line.
"""

from __future__ import annotations

import argparse
import sys
from operator import attrgetter
from typing import Iterator, Optional, Sequence

from .bounds import BoundEngine, FactFileError
from .constructions import (
    Cdc,
    _check_cdc_params,
    auto_cdc,
    block_inserting_I,
    block_inserting_II,
    coset_construction,
    combine,
    echelon_ferrers,
    find_parallelism,
    generalized_linkage,
    improved_linkage,
    lifted_mrd,
    linkage,
    partial_spread,
    single_codeword,
    skeleton_greedy,
)
from .divisible import sharp_floor, sqr_expand
from .gfq import GF, FieldSpec
from .provenance import decimal_str
from .rankmetric import RankCode, mrd_coset_partition, rect_mrd, restricted_rank_code, two_block_sumrank_code
from .spaces import MatGF, Subspace, _unit_lead
from .verify import min_distance

PARAM_ERROR = 2
VERIFY_ERROR = 3
DATA_ERROR = 4

_WRITE_LINES = 1 << 13  # lines joined into one write by `write_code_file`


# -- code files ----------------------------------------------------------------


def write_code_file(path: str, code: Cdc) -> None:
    field = code.words[0].field if code.words else GF(code.q)  # a read-back file keeps its modulus
    header = f"q={code.q} p={field.p} e={field.e} n={code.n} k={code.k} d={code.d} count={len(code.words)}"
    if field.e > 1:
        header += " mod=" + ",".join(str(c) for c in field.modulus)
    lines = ["SCODE 1\n", header + "\n"]
    text: dict[tuple[int, ...], str] = {}  # rows repeat across words; format each once
    for w in sorted(code.words, key=attrgetter("entries")):
        for row in w.entries:
            line = text.get(row)
            if line is None:
                line = text[row] = " ".join(map(str, row)) + "\n"
            lines.append(line)
        lines.append("\n")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for i in range(0, len(lines), _WRITE_LINES):  # a slice at a time: the text is never whole
                fh.write("".join(lines[i:i + _WRITE_LINES]))
    except OSError as exc:
        raise FileError(str(exc))


def _parse_header(line: str) -> dict:
    fields = {}
    for token in line.split():
        key, _, val = token.partition("=")
        fields[key] = val
    return fields


def _read_scode(path: str) -> tuple[dict, list[Subspace]]:
    """
    Parse a .scode file into its integer header fields and its codewords.
    Every defect in the file, including the header's count and the words'
    dimension, raises FileError.
    """
    try:
        try:
            with open(path, encoding="utf-8") as fh:
                return _parse_scode(path, enumerate(fh, 1))
        except UnicodeDecodeError:
            # the streamed decoder counts from its chunk; decoding the whole
            # file names the bad byte by its offset in the file
            with open(path, "rb") as fh:
                fh.read().decode("utf-8")
            raise
    except UnicodeError as exc:
        raise FileError(f"{path}: {exc}")
    except OSError as exc:
        raise FileError(str(exc))


def _parse_scode(path: str, lines: Iterator[tuple[int, str]]) -> tuple[dict, list[Subspace]]:
    """`_read_scode` on the (line number, line) pairs of the file."""
    content = (line for _, line in lines if not line.lstrip().startswith("#"))
    magic, header = next(content, None), next(content, None)
    if magic is None or magic.strip() != "SCODE 1":
        raise FileError(f"{path}: missing SCODE 1 magic")
    if header is None:
        raise FileError(f"{path}: missing header line")
    fields = _parse_header(header)
    try:
        head = {key: int(fields[key]) for key in ("q", "p", "e", "n", "k", "d", "count")}
        q, p, e = head["q"], head["p"], head["e"]
        _check_cdc_params(q, head["n"], head["k"], head["d"])
        field = GF(q)  # ValueError unless q is a prime power
        if (p, e) != (field.p, field.e):  # compared, not computed: p**e could be huge
            raise ValueError("q != p^e")
        if "mod" in fields:
            modulus = tuple(int(c) for c in fields["mod"].split(","))
            if modulus != field.modulus:
                field = FieldSpec(p, e, modulus)
    except (KeyError, ValueError) as exc:
        raise FileError(f"{path}: bad header ({exc})")
    n, k = head["n"], head["k"]
    words: list[Subspace] = []
    row_buf: list[tuple[int, ...]] = []
    lead_buf: list[Optional[int]] = []
    # row line -> its row and `_unit_lead`; rows repeat across words
    checked: dict[str, tuple[tuple[int, ...], Optional[int]]] = {}
    shared: dict[tuple, tuple] = {}  # one pivots tuple per distinct pivot set
    for number, line in lines:
        entry = checked.get(line)
        if entry is None:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                row = tuple(map(int, stripped.split()))
            except ValueError:
                row = None
            if row is None or len(row) != n or min(row) < 0 or max(row) >= q:
                raise FileError(f"{path}:{number}: bad codeword row {stripped!r}")
            entry = checked[line] = (row, _unit_lead(row))
        row_buf.append(entry[0])
        lead_buf.append(entry[1])
        if len(row_buf) == k:
            rows, leads = tuple(row_buf), tuple(lead_buf)
            word = Subspace._if_rref(field, n, rows, shared.setdefault(leads, leads))
            if word is None:  # not as `write_code_file` writes every word
                word = Subspace.from_matrix(MatGF(field, rows, n))
            words.append(word)
            row_buf, lead_buf = [], []
    if row_buf:
        raise FileError(f"{path}: trailing incomplete codeword")
    if k == 0 and head["count"]:  # GF(q)^n has one 0-space, written with no row lines
        words.append(Subspace.zero(field, n))
    if len(words) != head["count"]:
        raise FileError(f"{path}: header declares {head['count']} codewords, found {len(words)}")
    if len(set(words)) != len(words):
        raise FileError(f"{path}: duplicate codewords")
    for w in words:
        if w.k != k:
            raise FileError(f"{path}: codeword of dimension {w.k}, expected {k}")
    return head, words


def read_code_file(path: str) -> Cdc:
    head, words = _read_scode(path)
    return Cdc(head["q"], head["n"], head["k"], head["d"], tuple(words), ("file", (("path", path),)))


class FileError(Exception):
    pass


# -- construction dispatch -------------------------------------------------------


def _build(name: str, q: int, n: int, k: int, d: int, split: Optional[int],
           skeleton: Optional[str]) -> Cdc:
    if name == "lmrd":
        return lifted_mrd(q, n, k, d)
    if name == "linkage":
        n1 = split if split is not None else k
        n2 = n - n1
        C1 = auto_cdc(q, n1, d, k)
        C2 = auto_cdc(q, n2, d, k)
        return linkage(C1, C2, rect_mrd(q, k, n2, d // 2))
    if name == "improved-linkage":
        n1 = split if split is not None else k
        n2 = n - n1
        C1 = auto_cdc(q, n1, d, k)
        C2 = auto_cdc(q, n2 + max(k - d // 2, 0), d, k)
        return improved_linkage(C1, C2, rect_mrd(q, k, n2, d // 2))
    if name == "gen-linkage":
        n1 = split if split is not None else n // 2
        n2 = n - n1
        C1 = auto_cdc(q, n1, d, k)
        C2 = auto_cdc(q, n2, d, k)
        M1 = rect_mrd(q, k, n2, d // 2)
        M2 = restricted_rank_code(q, k, n1, d // 2, range(0, k - d // 2 + 1))
        return generalized_linkage(C1, C2, M1, M2)
    if name == "ef":
        if skeleton is not None:  # "" is the empty skeleton, which echelon_ferrers refuses
            vectors = [tuple(int(c) for c in v) for v in skeleton.split(",")] if skeleton else []
            return echelon_ferrers(vectors, q, d)
        _check_cdc_params(q, n, k, d)  # the greedy scoring itself needs d >= 2
        return echelon_ferrers(skeleton_greedy(q, n, k, d), q, d)
    if name == "spread":
        return partial_spread(q, n, k)
    if name == "coset":
        par = find_parallelism(q, 4, 2)
        return coset_construction(par, par, rect_mrd(q, 2, 2, 2), 2, 2)
    if name == "insert1":
        C1 = single_codeword(q, 3, 3, 6, position="left")
        zero = RankCode(GF(q), 3, 3, 3, (MatGF.zero(GF(q), 3, 3),))
        pack = mrd_coset_partition(q, 3, 3, 2, 3)
        return block_inserting_I((3, 3, 3, 3), 2, 4, C1, C1, zero, zero, pack, pack)
    if name == "insert2":
        C1 = single_codeword(q, 3, 3, 6, position="left")
        return block_inserting_II((3, 3, 3, 3), 6, two_block_sumrank_code(q), C1, C1)
    if name == "assemble":
        par = find_parallelism(q, 4, 2)
        w1 = lifted_mrd(q, 8, 4, 4)
        w2 = coset_construction(par, par, rect_mrd(q, 2, 2, 2), 2, 2)
        w3 = single_codeword(q, 8, 4, 4, position="right")
        return combine([w1, w2, w3])
    raise ValueError(f"unknown construction {name!r}")


# -- subcommands ------------------------------------------------------------------


def cmd_bound(args) -> int:
    engine = BoundEngine(use_facts=not args.no_facts)
    if args.dir == "upper":
        res = engine.best_upper(args.q, args.n, args.d, args.k)
    else:
        res = engine.best_lower(args.q, args.n, args.d, args.k)
    print(decimal_str(res.value))
    if args.explain:
        print(res.render())
    return 0


# the constructions that read --split and --skeleton
_READERS = {"split": ("linkage", "improved-linkage", "gen-linkage"), "skeleton": ("ef",)}


def cmd_construct(args) -> int:
    for option, readers in _READERS.items():
        if getattr(args, option) is not None and args.name not in readers:
            print(f"error: {args.name} takes no --{option}", file=sys.stderr)
            return PARAM_ERROR
    code = _build(args.name, args.q, args.n or 0, args.k or 0, args.d or 0, args.split, args.skeleton)
    if args.n not in (None, code.n) or args.k not in (None, code.k) or (args.d or 0) > code.d:
        given = " ".join(f"--{key} {val}" for key, val in (("n", args.n), ("k", args.k), ("d", args.d))
                         if val is not None)
        print(f"error: {args.name} builds a code with n={code.n} k={code.k} d={code.d}, "
              f"against {given}", file=sys.stderr)
        return PARAM_ERROR
    report = min_distance(code)
    if not report.ok():
        print(f"verification FAILED: min distance {report.min_distance} < declared {code.d}",
              file=sys.stderr)
        return VERIFY_ERROR
    write_code_file(args.out, code)
    print(f"{len(code.words)} codewords in GF({code.q})^{code.n}, declared distance {code.d}; "
          f"verified by exact scan; wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    code = read_code_file(args.file)
    expected = args.expect_d if args.expect_d is not None else code.d
    dist = min_distance(code).min_distance
    print(f"{len(code.words)} codewords; computed min distance {dist} (exact)")
    if dist != "infinite" and dist < expected:
        print(f"FAIL: {dist} < expected {expected}", file=sys.stderr)
        return VERIFY_ERROR
    return 0


def cmd_table(args) -> int:
    engine = BoundEngine(use_facts=not args.no_facts)
    rows = []
    rules = {}
    for n in range(max(4, args.d), args.n_max + 1):
        for k in range(2, n // 2 + 1):
            if args.d > 2 * k:
                continue
            lo, hi = engine.bounds(args.q, n, args.d, k)
            for r in (lo, hi):
                rules.setdefault(r.rule, r.citation)
            rows.append((n, k, lo, hi))
    if args.format == "csv":
        print("n,k,lower,lower_rule,upper,upper_rule")
        for n, k, lo, hi in rows:
            print(f"{n},{k},{decimal_str(lo.value)},{lo.rule},{decimal_str(hi.value)},{hi.rule}")
    else:
        print(f"| n | k | lower | upper | rules |")
        print("|---|---|---|---|---|")
        for n, k, lo, hi in rows:
            print(f"| {n} | {k} | {decimal_str(lo.value)} | {decimal_str(hi.value)} | {lo.rule} / {hi.rule} |")
        print()
        print("Rules used:")
        for rule, cite in sorted(rules.items()):
            print(f"- {rule}: {cite}" if cite else f"- {rule}")
    return 0


def cmd_expand(args) -> int:
    print(" ".join(str(c) for c in sqr_expand(args.value, args.q, args.r)))
    return 0


def cmd_sharpfloor(args) -> int:
    print(sharp_floor(args.a, args.b, args.q, args.r))
    return 0


def _ints(names: str, required: bool = True) -> tuple:
    """The specs of integer options --<name>, one per space-separated name."""
    return tuple(((f"--{name}",), {"type": int, "required": required}) for name in names.split())


_NO_FACTS = (("--no-facts",), {"action": "store_true"})

# command -> (help, handler, argument specs); each argument is declared here
# alone, and both `main` and `build_parser` build their parsers from it
_COMMANDS = {
    "bound": ("best known bound with provenance", cmd_bound, (
        *_ints("q n d k"),
        (("--dir",), {"choices": ("upper", "lower"), "required": True}),
        (("--explain",), {"action": "store_true"}),
        _NO_FACTS,
    )),
    "construct": ("build a code and write it to a file", cmd_construct, (
        (("name",), {"choices": ("lmrd", "linkage", "improved-linkage", "gen-linkage", "ef", "spread",
                                 "coset", "insert1", "insert2", "assemble")}),
        *_ints("q"),
        *_ints("n k d", required=False),
        (("--split",), {"type": int, "help": "width of the first column block"}),
        (("--skeleton",), {"help": "comma-separated pivot vectors for ef"}),
        (("-o", "--out"), {"required": True}),
    )),
    "verify": ("recompute a code file's min distance by exact scan", cmd_verify, (
        (("file",), {}),
        *_ints("expect-d", required=False),
    )),
    "table": ("best-bound table", cmd_table, (
        *_ints("q n-max d"),
        (("--format",), {"choices": ("md", "csv"), "default": "md"}),
        _NO_FACTS,
    )),
    "expand": ("base-sequence digit expansion", cmd_expand, _ints("value q r")),
    "sharpfloor": ("sharpened floor bracket", cmd_sharpfloor, _ints("a b q r")),
}


def _fill(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give `parser` the arguments and handler of command `name`."""
    _, func, specs = _COMMANDS[name]
    for flags, kwargs in specs:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scodes",
                                     description="subspace code constructions and bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _fill(sub.add_parser(name, help=help_text), name)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    if argv and argv[0] in _COMMANDS:
        # the prog and arguments `build_parser` gives this subparser, so its
        # help and errors read the same
        parser = _fill(argparse.ArgumentParser(prog=f"scodes {argv[0]}"), argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if extra:  # reported as the full parser reports them, under its usage line
            build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
        return args
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return PARAM_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (FileError, FactFileError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARAM_ERROR


if __name__ == "__main__":
    sys.exit(main())
