import argparse
import contextlib
import functools
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scodes
from scodes import cli
from scodes.bounds import BoundEngine
from scodes.cli import FileError, main, read_code_file, write_code_file
from scodes.constructions import Cdc, echelon_ferrers, lifted_mrd, linkage, single_codeword, skeleton_greedy
from scodes.gfq import GF, FieldSpec
from scodes.rankmetric import rect_mrd
from scodes.spaces import MatGF, Subspace


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_upper(capsys):
    rc, out, _ = run(capsys, "bound", "--q", "2", "--n", "9", "--d", "6", "--k", "4", "--dir", "upper")
    assert rc == 0
    assert out.strip() == "1156"


def test_bound_lower(capsys):
    rc, out, _ = run(capsys, "bound", "--q", "2", "--n", "8", "--d", "6", "--k", "4", "--dir", "lower")
    assert rc == 0
    assert out.strip() == "257"


def test_bound_convention(capsys):
    rc, out, _ = run(capsys, "bound", "--q", "2", "--n", "4", "--d", "10", "--k", "2", "--dir", "upper")
    assert rc == 0
    assert out.strip() == "1"


def test_bound_prints_values_of_any_size(capsys):
    # A_2(400,4;200) <= an integer of 11982 digits, past str()'s 4300-digit cap
    argv = ["bound", "--q", "2", "--n", "400", "--d", "4", "--k", "200", "--dir", "upper"]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    value = out.strip()
    assert len(value) == 11982 and value.isdigit()
    assert int(Decimal(value)) == BoundEngine().best_upper(2, 400, 4, 200).value
    rc, out, _ = run(capsys, *argv, "--explain")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == value
    assert lines[1].startswith(f"{value}  <- ")


def test_bound_explain_shows_provenance(capsys):
    rc, out, _ = run(capsys, "bound", "--q", "2", "--n", "7", "--d", "4", "--k", "3",
                     "--dir", "lower", "--explain")
    assert rc == 0
    assert out.splitlines()[0] == "333"
    assert "fact:lower" in out


def test_bound_no_facts(capsys):
    rc, out, _ = run(capsys, "bound", "--q", "2", "--n", "8", "--d", "6", "--k", "4",
                     "--dir", "upper", "--no-facts")
    assert rc == 0
    assert out.strip() == "289"


def test_bound_param_error(capsys):
    rc, _, err = run(capsys, "bound", "--q", "1", "--n", "8", "--d", "6", "--k", "4", "--dir", "upper")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("bound", "--q", "6", "--n", "6", "--d", "4", "--k", "3", "--dir", "upper"),
    ("bound", "--q", "6", "--n", "6", "--d", "4", "--k", "3", "--dir", "lower"),
    ("table", "--q", "6", "--n-max", "6", "--d", "4"),
], ids=["upper", "lower", "table"])
def test_bound_queries_reject_q_not_prime_power(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "6 is not a prime power" in err


@pytest.mark.parametrize("q", ["4", "8", "9"])
def test_bound_queries_accept_prime_powers(capsys, q):
    for direction in ("upper", "lower"):
        rc, out, _ = run(capsys, "bound", "--q", q, "--n", "6", "--d", "4", "--k", "3", "--dir", direction)
        assert rc == 0 and int(out) > 1
    rc, out, _ = run(capsys, "table", "--q", q, "--n-max", "6", "--d", "4", "--format", "csv")
    assert rc == 0 and len(out.splitlines()) == 5  # the header and 4 rows


def test_bound_query_at_a_large_prime_q_finishes(capsys):
    # q = 10^9 + 7 is prime: the prime-power check is one Miller-Rabin test
    start = time.perf_counter()
    rc, out, _ = run(capsys, "bound", "--q", "1000000007", "--n", "6", "--d", "4", "--k", "3",
                     "--dir", "upper")
    assert rc == 0 and int(out) > 1
    assert time.perf_counter() - start < 5


def test_construct_and_verify_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "c.scode")
    rc, out, _ = run(capsys, "construct", "linkage", "--q", "2", "--n", "8", "--k", "4",
                     "--d", "6", "-o", path)
    assert rc == 0
    assert "257 codewords" in out
    assert "exact scan" in out
    rc, out, _ = run(capsys, "verify", path, "--expect-d", "6")
    assert rc == 0
    assert "min distance 6" in out


def test_verify_detects_failure(tmp_path, capsys):
    path = str(tmp_path / "c.scode")
    rc, _, _ = run(capsys, "construct", "spread", "--q", "2", "--n", "6", "--k", "3", "-o", path)
    assert rc == 0
    rc, _, err = run(capsys, "verify", path, "--expect-d", "8")
    assert rc == 3
    assert "FAIL" in err


@pytest.mark.parametrize("command", [["construct", "lmrd", "--q", "2", "--n", "6", "--k", "3",
                                      "--d", "4"], ["verify"]])
def test_verify_cap_is_an_unknown_argument(tmp_path, capsys, command):
    path = str(tmp_path / "c.scode")
    assert run(capsys, "construct", "lmrd", "--q", "2", "--n", "6", "--k", "3", "--d", "4",
               "-o", path)[0] == 0
    argv = [*command, "-o", str(tmp_path / "d.scode")] if command[0] == "construct" else [*command, path]
    rc, out, err = run(capsys, *argv, "--verify-cap", "100")
    assert rc == 2 and out == "" and "unrecognized arguments: --verify-cap" in err
    assert not (tmp_path / "d.scode").exists()


@pytest.mark.parametrize("argv, message", [
    (["spread", "--q", "2", "--n", "6", "--k", "2", "--d", "8"], "spread builds a code with n=6 k=2 d=4"),
    (["assemble", "--q", "2", "--d", "6"], "assemble builds a code with n=8 k=4 d=4"),
    (["coset", "--q", "2", "--n", "9"], "coset builds a code with n=8 k=4 d=4"),
    (["ef", "--q", "2", "--n", "8", "--d", "6", "--skeleton", "1110000,0001101"],
     "ef builds a code with n=7 k=3 d=6"),
    (["lmrd", "--q", "2", "--n", "6", "--k", "3", "--d", "4", "--split", "3"], "lmrd takes no --split"),
    (["spread", "--q", "2", "--n", "6", "--k", "2", "--skeleton", "110000"], "spread takes no --skeleton"),
    (["linkage", "--q", "2", "--n", "8", "--k", "4", "--d", "6", "--skeleton", "11110000"],
     "linkage takes no --skeleton"),
])
def test_construct_refuses_a_code_that_contradicts_its_arguments(tmp_path, capsys, argv, message):
    path = tmp_path / "c.scode"
    rc, out, err = run(capsys, "construct", *argv, "-o", str(path))
    assert rc == 2 and out == "" and err.startswith("error: " + message)
    assert not path.exists()


@pytest.mark.parametrize("target", ["missing/c.scode", "."], ids=["missing-directory", "directory"])
def test_construct_to_an_unwritable_path_exits_4(tmp_path, capsys, target):
    path = tmp_path / target
    rc, out, err = run(capsys, "construct", "lmrd", "--q", "2", "--n", "6", "--k", "3", "--d", "4",
                       "-o", str(path))
    assert rc == 4 and out == ""
    assert err.startswith("data error:") and str(path) in err and len(err.splitlines()) == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv, message", [
    (["lmrd", "--q", "2", "--n", "1000", "--k", "3", "--d", "4"], "code size 2^1994 exceeds"),
    (["spread", "--q", "2", "--n", "1000", "--k", "500"], "code size 2^500 exceeds"),
    (["ef", "--q", "2", "--d", "4", "--skeleton", "101" + "0" * 997], "distance-2 diagram code too large"),
], ids=["lmrd", "spread", "ef-delta-2"])
def test_construct_over_the_cap_exits_2_before_building_the_field(tmp_path, argv, message):
    # each code needs GF(2^t) for t in the hundreds; finding its modulus took
    # longer than the timeout when it came before the size check; a size is
    # printed as a power of q, not in its hundreds of decimal digits
    src = os.path.dirname(os.path.dirname(os.path.abspath(scodes.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "scodes", "construct", *argv, "-o", str(tmp_path / "c.scode")],
                          env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: " + message) and len(done.stderr.splitlines()) == 1
    assert len(done.stderr) < 200
    assert "Traceback" not in done.stderr


def test_verify_missing_file(capsys):
    rc, _, err = run(capsys, "verify", "/nonexistent/x.scode")
    assert rc == 4


def test_verify_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.scode"
    bad.write_text("SCODE 1\nq=2 p=2 e=1 n=4 k=2 d=4 count=3\n1 0 0 0\n0 1 0 0\n\n", encoding="utf-8")
    rc, _, err = run(capsys, "verify", str(bad))
    assert rc == 4
    assert "data error" in err


@pytest.mark.parametrize("name, text, argv", [
    ("bad.scode", "SCODE 1\n", ["verify", "{path}"]),
    ("bad.scode", "SCODE 1\nq=2 p=2 e=1 n=4 k=2 d=4 count=1\n1 0 0 x\n0 1 0 0\n\n",
     ["verify", "{path}"]),
    ("bad.scode", "SCODE 1\nq=4 p=2 e=2 n=4 k=2 d=4 count=1 mod=1,a\n1 0 0 0\n0 1 0 0\n\n",
     ["verify", "{path}"]),
    ("bad.scode", "SCODE 1\nq=2 p=2 e=1 k=2 d=4 count=0\n", ["verify", "{path}"]),
    ("bad.scode", "SCODE 1\nq=3 p=3 e=1 n=4 k=2 d=4 count=1\n1 0 0 -1\n0 1 0 0\n\n",
     ["verify", "{path}"]),
    ("bad.scode", "SCODE 1\nq=3 p=3 e=1 n=4 k=2 d=4 count=1\n1 0 0 0\n0 1 3 0\n\n",
     ["verify", "{path}"]),
    ("bad.scode", "SCODE 1\nq=2 p=2 e=1 n=-1 k=1 d=2 count=0\n", ["verify", "{path}"]),
    ("bad.scode", "SCODE 1\nq=2 p=2 e=1 n=3 k=-1 d=2 count=0\n", ["verify", "{path}"]),
    ("bad.scode", "SCODE 1\nq=2 p=2 e=1 n=3 k=5 d=2 count=0\n", ["verify", "{path}"]),
    ("bad.scode", "SCODE 1\nq=2 p=2 e=1 n=3 k=1 d=-2 count=0\n", ["verify", "{path}"]),
    ("bad.scode", "SCODE 1\nq=2 p=2 e=1 n=3 k=0 d=2 count=2\n", ["verify", "{path}"]),
], ids=["header-only", "row-token", "modulus-token", "header-without-n", "row-entry-minus-1",
        "row-entry-q", "header-n-negative", "header-k-negative", "header-k-above-n",
        "header-d-negative", "header-two-zero-spaces"])
def test_malformed_input_exits_4(tmp_path, capsys, name, text, argv):
    (tmp_path / name).write_text(text, encoding="utf-8")
    rc, _, err = run(capsys, *(a.format(path=tmp_path / name) for a in argv))
    assert rc == 4
    assert err.startswith("data error:")


@pytest.mark.parametrize("text, expected_rc", [
    ("SCODE 1\nq=1000000007 p=1000000007 e=1 n=4 k=2 d=4 count=3\n1 0 5 7\n0 1 1000000006 3\n\n", 4),
    ("SCODE 1\nq=1000000007 p=1000000007 e=1 n=4 k=2 d=4 count=2\n1 0 5 7\n0 1 1000000006 3\n\n"
     "1 0 0 0\n0 1 0 0\n\n", 0),
    ("SCODE 1\nq=2 p=2 e=99999999999 n=4 k=2 d=4 count=1\n1 0 0 0\n0 1 0 0\n\n", 4),
], ids=["large-prime-q-bad-count", "large-prime-q", "huge-e"])
def test_header_checks_finish_fast(tmp_path, capsys, text, expected_rc):
    # neither the prime-power check of q nor the p^e check may take time that
    # grows with q or e
    path = tmp_path / "h.scode"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    rc, _, err = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1
    assert rc == expected_rc
    assert err.startswith("data error:") or expected_rc == 0


@pytest.mark.parametrize("argv, header", [
    (["verify"], "q=1000000014000000049 p=1000000007 e=2 n=4 k=2 d=4 count=0"),
    (["verify"], "q=1099511627776 p=2 e=40 n=4 k=2 d=4 count=0"),
    (["bound", "--q", "1000000014000000049", "--n", "6", "--d", "4", "--k", "3", "--dir", "upper"], None),
    (["bound", "--q", "2305843009213693951", "--n", "6", "--d", "4", "--k", "3", "--dir", "upper"], None),
], ids=["verify-gf-p2-p-near-1e9", "verify-gf-2-40", "bound-q-p2-p-near-1e9", "bound-q-2-61-minus-1"])
def test_large_field_queries_finish(tmp_path, argv, header):
    # q = (10^9+7)^2 and GF(2^40) need their default moduli (Rabin's test),
    # q = 2^61 - 1 a primality test that does not grow with sqrt(q)
    if header is not None:
        path = tmp_path / "h.scode"
        path.write_text(f"SCODE 1\n{header}\n", encoding="utf-8")
        argv = argv + [str(path)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(scodes.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "scodes", *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_code_file_roundtrip_canonical(tmp_path):
    code = linkage(single_codeword(2, 4, 4, 6, position="left"),
                   single_codeword(2, 4, 4, 6, position="left"),
                   rect_mrd(2, 4, 4, 3))
    path = str(tmp_path / "x.scode")
    write_code_file(path, code)
    back = read_code_file(path)
    assert set(back.words) == set(code.words)
    assert (back.q, back.n, back.k, back.d) == (2, 8, 4, 6)
    # writing the parse result reproduces the file byte for byte
    path2 = str(tmp_path / "y.scode")
    write_code_file(path2, back)
    assert open(path).read() == open(path2).read()


@st.composite
def small_constructions(draw):
    """A construction name with small parameters it accepts: spreads and
    the linkage codes that read C(n - k, d; k) need 2k <= n."""
    name = draw(st.sampled_from(["lmrd", "linkage", "improved-linkage", "gen-linkage", "ef", "spread"]))
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 6 if q == 2 else 5))
    k = draw(st.integers(1, n // 2 if name in ("linkage", "gen-linkage", "spread") else n - 1))
    return name, q, n, k, 2 * draw(st.integers(1, min(k, n - k)))


@given(small_constructions())
@settings(max_examples=40, deadline=None)
def test_every_construction_round_trips_through_its_file(args):
    built = cli._build(*args, None, None)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = os.path.join(tmp, "c.scode"), os.path.join(tmp, "again.scode")
        write_code_file(path, built)
        back = read_code_file(path)
        write_code_file(again, back)
        with open(path, "rb") as first, open(again, "rb") as second:
            assert first.read() == second.read()
    assert (back.q, back.n, back.k, back.d) == (built.q, built.n, built.k, built.d)
    assert list(back.words) == sorted(built.words, key=lambda w: w.rref.entries)


def test_zero_space_code_round_trips(tmp_path, capsys):
    path = str(tmp_path / "z.scode")
    rc, _, _ = run(capsys, "construct", "lmrd", "--q", "2", "--n", "4", "--k", "0", "--d", "2", "-o", path)
    assert rc == 0
    rc, out, _ = run(capsys, "verify", path)
    assert rc == 0 and out.startswith("1 codewords")
    assert read_code_file(path).words == (Subspace.zero(GF(2), 4),)


def scode_text(field, n, k, words):
    """A .scode file over `field` holding `words`, each a list of row lines."""
    header = f"q={field.q} p={field.p} e={field.e} n={n} k={k} d=2 count={len(words)}"
    if field.e > 1:
        header += " mod=" + ",".join(map(str, field.modulus))
    return "SCODE 1\n" + header + "\n" + "".join("\n".join(rows) + "\n\n" for rows in words)


# Per q: n, k, words whose row lines repeat (some not in RREF, some equal as
# rows but not as text: extra spaces, tabs, leading zeros), and a block of
# rank k-1 written with two texts of one row.
ROW_MEMO_FILES = {
    2: (4, 2, [["1 1 0 0", "0 1 1 0"], ["0 1 1 0", "0 0 1 1"], ["0  1 1 0", "1\t0 0 1"],
               ["01 0 0 0", "0 0 01 1"], [" 0 0 1 1", "1 1 1 1 "]],
        ["1 1 1 1", "1 1 1 01"]),
    3: (4, 2, [["2 1 0 0", "1 2 1 0"], ["1 2 1 0", "0 0 2 2"], ["1  2 1 0", "0\t1 0 2"],
               ["02 1 0 0", "0 0 0 1"], ["0 0 2 2 ", "  0 1 0 2"]],
        ["1 2 1 0", "2 1 2 0"]),
    4: (3, 2, [["3 2 1", "1 1 0"], ["1 1 0", "0 3 2"], ["1 1  0", "0\t0 1"],
               ["03 2 1", "0 1 3"], ["0 3 2", "2 0 3"]],
        ["0 3 2", "0\t3 2"]),
    9: (3, 2, [["8 5 1", "3 7 2"], ["3 7 2", "0 0 6"], ["3 7  2", "1\t0 4"],
               ["08 5 1", "0 2 05"], ["0 0 6", "5 4 0"]],
        ["8 5 1", "8 05 01"]),
}


@pytest.mark.parametrize("q", list(ROW_MEMO_FILES))
def test_reader_gives_every_word_its_own_rows(tmp_path, capsys, q):
    n, k, words, deficient = ROW_MEMO_FILES[q]
    F = GF(q)
    path = tmp_path / "m.scode"
    path.write_text(scode_text(F, n, k, words), encoding="utf-8")
    expected = tuple(Subspace.from_matrix(MatGF(F, [[int(t) for t in line.split()] for line in rows], n))
                     for rows in words)
    assert read_code_file(str(path)).words == expected
    path.write_text(scode_text(F, n, k, words + [deficient]), encoding="utf-8")
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 4
    assert err.startswith("data error:") and f"codeword of dimension {k - 1}, expected {k}" in err


def test_reader_row_memo_does_not_outlive_a_call(tmp_path):
    gf3, gf2 = tmp_path / "gf3.scode", tmp_path / "gf2.scode"
    gf3.write_text(scode_text(GF(3), 3, 1, [["0 2 1"]]), encoding="utf-8")
    gf2.write_text(scode_text(GF(2), 3, 1, [["0 2 1"]]), encoding="utf-8")
    assert read_code_file(str(gf3)).words == (Subspace.from_matrix(MatGF(GF(3), [[0, 2, 1]])),)
    with pytest.raises(FileError, match="bad codeword row '0 2 1'"):
        read_code_file(str(gf2))


def test_repeated_bad_row_is_reported_at_its_first_line(tmp_path, capsys):
    path = tmp_path / "bad.scode"
    path.write_text("SCODE 1\n# comment\nq=3 p=3 e=1 n=4 k=2 d=2 count=3\n"
                    "1 0 0 0\n0 1 0 0\n\n"
                    "1 0 0 0\n0 1 0 3\n\n"
                    "0 0 1 0\n0 1 0 3\n\n", encoding="utf-8")
    with pytest.raises(FileError, match=r":8: bad codeword row '0 1 0 3'"):
        read_code_file(str(path))
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 4
    assert err.startswith("data error:") and ":8: bad codeword row" in err


def test_bad_row_after_comment_and_part_lines_is_reported_at_its_line(tmp_path, capsys):
    path = tmp_path / "bad.scode"
    path.write_text("SCODE 1\n# comment\nq=2 p=2 e=1 n=4 k=2 d=2 count=2\n# part=0\n"
                    "1 0 0 0\n0 1 0 0\n\n# note\n  # part=1\n"
                    "0 0 1 0\n0 2 0 1\n\n", encoding="utf-8")
    with pytest.raises(FileError, match=r":11: bad codeword row '0 2 0 1'"):
        read_code_file(str(path))
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 4
    assert err.startswith("data error:") and ":11: bad codeword row" in err


def test_crlf_file_reads_as_its_lf_twin(tmp_path):
    code = echelon_ferrers(skeleton_greedy(3, 6, 3, 4), 3, 4)
    lf, crlf = tmp_path / "lf.scode", tmp_path / "crlf.scode"
    write_code_file(str(lf), code)
    text = lf.read_bytes()
    crlf.write_bytes(text.replace(b"\n", b"\r\n"))
    assert b"\r\n" in crlf.read_bytes()
    got, want = read_code_file(str(crlf)), read_code_file(str(lf))
    assert got.words == want.words == tuple(sorted(code.words, key=lambda w: w.entries))
    assert [w.pivot_positions() for w in got.words] == [w.pivot_positions() for w in want.words]


@pytest.mark.parametrize("words_before", [0, 2000], ids=["first-chunk", "later-chunk"])
def test_invalid_utf8_in_the_body_is_a_data_error(tmp_path, capsys, words_before):
    body = b"1 0 0 0\n0 1 0 0\n\n" * words_before
    path = tmp_path / "bad.scode"
    data = (b"SCODE 1\nq=2 p=2 e=1 n=4 k=2 d=4 count=%d\n" % (words_before + 1)
            + body + b"0 0 1 0\n0 0 0 \xff\n\n")
    path.write_bytes(data)
    rc, out, err = run(capsys, "verify", str(path))
    assert (rc, out) == (4, "")
    # the line names the file, and the position is the bad byte's offset in
    # the file, not in a read chunk
    at = data.index(b"\xff")
    assert err == (f"data error: {path}: 'utf-8' codec can't decode byte 0xff in position {at}: "
                   "invalid start byte\n")


def test_reader_keeps_one_pivots_tuple_per_pivot_set(tmp_path):
    path = tmp_path / "ef.scode"
    write_code_file(str(path), echelon_ferrers(skeleton_greedy(2, 7, 3, 4), 2, 4))
    words = read_code_file(str(path)).words
    pivots = [w.pivot_positions() for w in words]
    assert len({id(p) for p in pivots}) == len(set(pivots)) > 1


def test_reading_a_file_peaks_near_what_it_keeps(tmp_path):
    # holding the file's lines whole made the peak 2.13 times the bytes kept
    path = str(tmp_path / "lmrd.scode")
    write_code_file(path, lifted_mrd(2, 10, 3, 4))
    read_code_file(path)  # fills the field caches
    tracemalloc.start()
    try:
        code = read_code_file(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(code) == 2**14
    assert peak / kept <= 1.4


def test_writing_a_file_holds_its_text_less_than_once(tmp_path):
    # joining every line and appending the last newline held the text
    # about 2.6 times over
    code = lifted_mrd(2, 10, 3, 4)
    path = tmp_path / "lmrd.scode"
    write_code_file(str(path), code)
    want = path.read_bytes()
    tracemalloc.start()
    try:
        write_code_file(str(path), code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == want
    assert peak < 1.5 * len(want)


NEAR_RREF_DEFECTS = ["none", "above-pivot", "lead-2", "swap", "zero-row", "repeat-row", "random"]


@st.composite
def near_rref_words(draw):
    """(q, n, k, words): 1 to 4 generators of k x n over GF(q), each an RREF
    generator or one with a defect close to RREF."""
    q = draw(st.sampled_from([2, 3, 4, 9]))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 5))
    entry = st.integers(0, q - 1)
    words = []
    for _ in range(draw(st.integers(1, 4))):
        pivots = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
        rows = [[int(j == p) if j <= p or j in pivots else draw(entry) for j in range(n)] for p in pivots]
        defect = draw(st.sampled_from(NEAR_RREF_DEFECTS))
        i, j = sorted(draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
                      if k > 1 else [0, 0])
        if defect == "above-pivot" and i < j:  # one nonzero above a later pivot
            rows[i][pivots[j]] = draw(st.integers(1, q - 1))
        elif defect == "lead-2" and q > 2:
            rows[j][pivots[j]] = 2
        elif defect == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif defect == "zero-row":
            rows[j] = [0] * n
        elif defect == "repeat-row":
            rows[j] = list(rows[i])
        elif defect == "random":
            rows = [[draw(entry) for _ in range(n)] for _ in range(k)]
        words.append(rows)
    return q, n, k, words


@settings(max_examples=300, deadline=None)
@given(near_rref_words())
def test_reader_and_from_rref_agree_with_rref(case):
    q, n, k, words = case
    F = GF(q)
    expected = [Subspace.from_matrix(MatGF(F, rows, n)) for rows in words]
    for rows, U in zip(words, expected):
        # from_rref accepts exactly the rows that rref gives back unchanged
        if U.rref.entries == tuple(map(tuple, rows)):
            V = Subspace.from_rref(F, n, rows)
            assert V == U and V.pivot_positions() == U.pivot_positions() and hash(V) == hash(U)
        else:
            with pytest.raises(ValueError, match="not in RREF"):
                Subspace.from_rref(F, n, rows)
    deficient = [U.k for U in expected if U.k != k]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "w.scode")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(scode_text(F, n, k, [[" ".join(map(str, row)) for row in rows] for rows in words]))
        if len(set(expected)) != len(expected):
            with pytest.raises(FileError, match="duplicate codewords"):
                read_code_file(path)
        elif deficient:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                assert main(["verify", path]) == 4
            assert err.getvalue().startswith("data error:")
            assert f"codeword of dimension {deficient[0]}, expected {k}" in err.getvalue()
        else:
            back = read_code_file(path).words
            assert back == tuple(expected)
            assert [U.pivot_positions() for U in back] == [U.pivot_positions() for U in expected]


@pytest.mark.parametrize("q", [9, 25])
def test_modulus_header_reads_into_the_default_field(tmp_path, q):
    code = lifted_mrd(q, 4, 2, 4)
    path = tmp_path / "c.scode"
    write_code_file(str(path), code)
    assert "mod=" + ",".join(map(str, GF(q).modulus)) in path.read_text()
    back = read_code_file(str(path))
    assert all(w.field is GF(q) for w in back.words)
    assert set(back.words) == set(code.words)


def test_other_modulus_reads_back_over_that_modulus(tmp_path):
    F = FieldSpec(3, 2, (2, 1, 1))  # x^2 + x + 2, not GF(9)'s default x^2 + 1
    assert F.modulus != GF(9).modulus
    words = tuple(Subspace.from_matrix(MatGF(F, rows)) for rows in
                  ([[1, 3, 4, 0], [2, 2, 5, 7]], [[1, 0, 0, 0], [0, 0, 1, 0]], [[0, 1, 8, 8], [0, 0, 6, 1]]))
    path, again = tmp_path / "c.scode", tmp_path / "again.scode"
    write_code_file(str(path), Cdc(9, 4, 2, 2, words))
    assert "mod=2,1,1" in path.read_text()
    back = read_code_file(str(path))
    assert all(w.field == F for w in back.words)
    assert set(back.words) == set(words)
    write_code_file(str(again), back)
    assert again.read_bytes() == path.read_bytes()


def test_code_file_gf4_modulus_header(tmp_path):
    code = single_codeword(4, 4, 2, 4)
    path = str(tmp_path / "g.scode")
    write_code_file(path, code)
    text = open(path).read()
    assert "mod=1,1,1" in text
    back = read_code_file(path)
    assert back.words == code.words


def test_construct_ef_with_skeleton(tmp_path, capsys):
    path = str(tmp_path / "ef.scode")
    rc, out, _ = run(capsys, "construct", "ef", "--q", "2", "--n", "7", "--k", "3", "--d", "6",
                     "--skeleton", "1110000,0001101", "-o", path)
    assert rc == 0
    assert "17 codewords" in out


def test_construct_ef_refuses_an_empty_skeleton(tmp_path, capsys):
    # --skeleton= gives the empty skeleton, not the greedy one
    path = tmp_path / "ef.scode"
    rc, out, err = run(capsys, "construct", "ef", "--q", "2", "--n", "7", "--k", "3", "--d", "4",
                       "--skeleton=", "-o", str(path))
    assert (rc, out, err) == (2, "", "error: empty skeleton\n")
    assert not path.exists()


def test_construct_ef_rejects_a_skeleton_entry_other_than_0_or_1(tmp_path, capsys):
    path = tmp_path / "ef.scode"
    rc, _, err = run(capsys, "construct", "ef", "--q", "2", "--skeleton", "1200", "--d", "2",
                     "-o", str(path))
    assert rc == 2
    assert "skeleton entry 2 is not 0 or 1" in err
    assert not path.exists()


@pytest.mark.parametrize("name", ["linkage", "improved-linkage", "gen-linkage"])
def test_construct_linkage_rejects_an_empty_first_block(tmp_path, capsys, name):
    path = tmp_path / "c.scode"
    rc, _, err = run(capsys, "construct", name, "--q", "2", "--n", "6", "--k", "3", "--d", "4",
                     "--split", "0", "-o", str(path))
    assert rc == 2 and err.startswith("error:")
    assert not path.exists()


@pytest.mark.parametrize("name, n, k, d", [("linkage", 9, 3, 8), ("improved-linkage", 9, 3, 8),
                                           ("linkage", 8, 4, 10), ("improved-linkage", 8, 4, 10)])
def test_construct_linkage_above_the_diameter_is_one_word(tmp_path, capsys, name, n, k, d):
    # d > 2 min(k, n-k): no two k-spaces are d apart, so, as lmrd, ef and
    # gen-linkage do, the linkage family builds the one word [I_k | 0]
    path = tmp_path / "c.scode"
    rc, out, _ = run(capsys, "construct", name, "--q", "2", "--n", str(n), "--k", str(k),
                     "--d", str(d), "-o", str(path))
    assert rc == 0
    assert out.startswith(f"1 codewords in GF(2)^{n}, declared distance {d}; verified by exact scan")
    rows = path.read_text().splitlines()[2:2 + k]
    assert rows == [" ".join("1" if j == i else "0" for j in range(n)) for i in range(k)]


def test_construct_insert2(tmp_path, capsys):
    path = str(tmp_path / "i2.scode")
    rc, out, _ = run(capsys, "construct", "insert2", "--q", "2", "-o", path)
    assert rc == 0
    assert "58 codewords" in out


def test_expand_and_sharpfloor(capsys):
    rc, out, _ = run(capsys, "expand", "--value", "137", "--q", "3", "--r", "3")
    assert rc == 0
    assert out.strip() == "2 1 2 -2"
    rc, out, _ = run(capsys, "sharpfloor", "--a", "17374", "--b", "15", "--q", "2", "--r", "3")
    assert rc == 0
    assert out.strip() == "1156"


# SHA-256 of `scodes expand` and `scodes sharpfloor` over a grid of q, r and
# values, frozen while expansions were still returned in a wrapper class.
GOLDEN_EXPAND_SHARPFLOOR_SHA256 = "dcded0f3b2e4d88269321f20c3676158b051b84fa7697a809635a71b59184a85"


def test_expand_and_sharpfloor_match_golden_digest(capsys):
    out = []
    for q in ("2", "3", "4"):
        for r in ("1", "2", "3"):
            for v in range(-40, 300, 13):
                rc, text, _ = run(capsys, "expand", "--value", str(v), "--q", q, "--r", r)
                assert rc == 0
                out.append(text)
            for a, b in ((0, 5), (17374, 15), (765, 7), (1000, 13), (5000, 31), (123456, 63)):
                rc, text, _ = run(capsys, "sharpfloor", "--a", str(a), "--b", str(b), "--q", q, "--r", r)
                assert rc == 0
                out.append(text)
    assert len("".join(out).splitlines()) == 297
    assert hashlib.sha256("".join(out).encode()).hexdigest() == GOLDEN_EXPAND_SHARPFLOOR_SHA256


def test_table_contains_fact_row(capsys):
    rc, out, _ = run(capsys, "table", "--q", "2", "--n-max", "9", "--d", "4", "--format", "md")
    assert rc == 0
    row = next(l for l in out.splitlines() if l.startswith("| 9 | 3 |"))
    assert "| 5986 |" in row
    assert "Rules used:" in out


def test_table_csv(capsys):
    rc, out, _ = run(capsys, "table", "--q", "2", "--n-max", "6", "--d", "4", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,lower,lower_rule,upper,upper_rule"
    assert any(l.startswith("6,3,77,") for l in lines)


def test_construct_coset_and_assemble(tmp_path, capsys):
    path = str(tmp_path / "coset.scode")
    rc, out, _ = run(capsys, "construct", "coset", "--q", "2", "-o", path)
    assert rc == 0 and "700 codewords" in out
    path2 = str(tmp_path / "asm.scode")
    rc, out, _ = run(capsys, "construct", "assemble", "--q", "2", "-o", path2)
    assert rc == 0
    assert "4797 codewords" in out
    assert "verified by exact scan" in out


def test_construct_insert1(tmp_path, capsys):
    path = str(tmp_path / "i1.scode")
    rc, out, _ = run(capsys, "construct", "insert1", "--q", "2", "-o", path)
    assert rc == 0 and "512 codewords" in out


def test_construct_unavailable_packing(tmp_path, capsys):
    # the built-in search finds PG(3, q)'s parallelism at q = 2 and 3 only;
    # at q = 3 the coset code is built and certified, at q = 4 neither
    # construction has its packing, a parameter error with no file
    path = tmp_path / "c3.scode"
    rc, out, _ = run(capsys, "construct", "coset", "--q", "3", "-o", str(path))
    assert rc == 0 and out.startswith("11700 codewords in GF(3)^8") and "verified by exact scan" in out
    assert len(read_code_file(str(path))) == 11700
    for name in ("coset", "assemble"):
        path = tmp_path / f"{name}4.scode"
        rc, out, err = run(capsys, "construct", name, "--q", "4", "-o", str(path))
        assert (rc, out) == (2, "")
        assert err == "error: no built-in parallelism search for (q, n, k) = (4, 4, 2)\n"
        assert not path.exists()


@pytest.mark.parametrize("option", [
    ["--sampled", "5"], ["--seed", "1"], ["--sampled", "300", "--seed", "1"], ["--sampled", "0"],
    ["--sampled", "-5"],
], ids=["sampled", "seed", "sampled-and-seed", "sampled-0", "sampled-negative"])
def test_verify_refuses_the_sampling_options(tmp_path, option):
    # every verification the command line runs is the exact scan: a request
    # for a sampled one, of any count, is a usage error (exit 2), not a
    # traceback
    path = tmp_path / "s.scode"
    write_code_file(str(path), lifted_mrd(2, 4, 2, 4))
    src = os.path.dirname(os.path.dirname(os.path.abspath(scodes.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "scodes", "verify", str(path), *option], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage:") and "unrecognized arguments: " + " ".join(option) in done.stderr
    assert "Traceback" not in done.stderr


def test_construct_gen_linkage(tmp_path, capsys):
    path = str(tmp_path / "gl.scode")
    rc, out, _ = run(capsys, "construct", "gen-linkage", "--q", "2", "--n", "8", "--k", "4",
                     "--d", "4", "--split", "4", "-o", path)
    assert rc == 0
    assert "4622 codewords" in out
    assert "verified by exact scan" in out


# SHA-256 of the files written by `scodes construct`: they pin the words of
# the Gabidulin coset partition (insert1), the coset builder (coset) and the
# greedy skeleton (ef) byte for byte; at d = 6 (ef-d6) the diagram codes of
# the non-rectangular diagrams come from the delta = 3 greedy.
GOLDEN_CONSTRUCT_SHA256 = {
    ("insert1", "--q", "2"): "999326e204bb3952b30aeae198bf3333eee26451213b69b0e41cc38fb3594157",
    ("coset", "--q", "2"): "36e5b5473a907b41e5c343a15bffd14d56bc2812344c87e805612b0d5234564b",
    ("ef", "--q", "3", "--n", "7", "--k", "3", "--d", "4"):
        "1d0202fd4b888e1e8717971a2e8e3d55491f9dba99351eddd76045b9b070245f",
    ("ef", "--q", "2", "--n", "9", "--k", "4", "--d", "6"):
        "511450296613ea65aa69458ccfb13784248e09de0ecec1ad719c54317d4b2900",
    ("lmrd", "--q", "3", "--n", "7", "--k", "3", "--d", "4"):
        "6b15fefdd7189c64e270034c757a6e9abdb356cd5348751f9c8da4a4bf253cfb",
    ("lmrd", "--q", "9", "--n", "5", "--k", "2", "--d", "4"):  # has a mod= header
        "11ab188f2f1b3f79bc95d0c594172793686963b824ce9aa9dfefb97e58d0840a",
    ("assemble", "--q", "2"):  # the 4797-word union certified by `combine`
        "8cd710f30cf1a09016b8142b0c8bcbda87a2116289f554c54433858161ee0d2f",
}


@pytest.mark.parametrize("args", list(GOLDEN_CONSTRUCT_SHA256),
                         ids=lambda args: args[0] + "-d6" * (args[-1] == "6"))
def test_construct_output_matches_golden_digest(tmp_path, capsys, args):
    path = tmp_path / "c.scode"
    rc, out, _ = run(capsys, "construct", *args, "-o", str(path))
    assert rc == 0
    assert "verified by exact scan" in out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CONSTRUCT_SHA256[args]
    # reading the file and writing it again reproduces it byte for byte
    again = tmp_path / "again.scode"
    write_code_file(str(again), read_code_file(str(path)))
    assert again.read_bytes() == path.read_bytes()


def test_ef_achievable_size_golden():
    from scodes.bounds import _ef_achievable_size

    golden = {(2, 9, 4, 6): 1026, (2, 10, 5, 6): 32771, (2, 12, 6, 6): 16777227,
              (2, 13, 4, 4): 152546649, (2, 13, 6, 8): 2097155, (3, 7, 3, 4): 6685,
              (3, 8, 4, 4): 539578, (4, 6, 3, 4): 4117}
    assert {p: _ef_achievable_size(*p) for p in golden} == golden


# SHA-256 of `scodes table` CSVs and `scodes bound --explain` trees, frozen
# before the bound engine gained its binomial and achievable-size memos; any
# engine refactor must reproduce them byte for byte.  The two upper trees were
# frozen again when `best_upper` stopped listing the Ahlswede-Aydinian
# candidate: only its subtrees left them, and every value stayed.  All four
# trees were frozen again when the engine stopped listing the rules that can
# never decide a bound (`DROPPED_RULES`): only their lines left the trees,
# and every value and winning rule stayed.
GOLDEN_TABLE_SHA256 = {
    ("2", "4"): "f8d296330459222bf19d43e904aa0b7e1531f6fcaa060ccd24bbb1e280931f84",
    ("2", "6"): "65199b35ea56b4d782a96f4f8ca7052473eb8afe57abdb3e6a7c222549b55851",
    ("2", "8"): "d4d52ab39b001d43ed4939444063a9565c3b155ec4df26d2576b9d30da8c2a86",
    ("3", "4"): "3433d65e740033962ef3481f1008001f38b13d2123904cd48c7d06b6d8ff5878",
    ("3", "6"): "5688247576bf32430f6859db6b9d5dbd02f4930a54f32e3a007e483ca96d4edc",
    ("3", "8"): "4311b97811c4dacca79898fcc1f7fe2f9e20bb45e05293148ba56b304b41c70c",
}

GOLDEN_EXPLAIN_SHA256 = {
    ("2", "9", "6", "4", "upper"): "5b952a1740f3f31b22397a932749a0daf01f44e8ea8dacbe1bb74ca928032ff2",
    ("2", "12", "4", "6", "lower"): "e07cd85d7ad263440b5bd2177f6e4868d653c472f44d10983163677d239c850e",
    ("3", "10", "4", "5", "upper"): "4d024920c710761210a6d66fa0890cdd0409a1e8a98c123d03a222b552196607",
    ("3", "10", "4", "5", "lower"): "d01f71ab50f2b0fc1e10e668c881052ad46daf33d0dcb7b6d8b9c501d61bb349",
}


@pytest.mark.parametrize("q, d", list(GOLDEN_TABLE_SHA256), ids=lambda v: v)
def test_table_csv_matches_golden_digest(capsys, q, d):
    rc, out, _ = run(capsys, "table", "--q", q, "--d", d, "--n-max", "16", "--format", "csv")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLE_SHA256[(q, d)]


# `table --n-max 13` at (q, d) pairs the digests above do not cover; the
# multilevel rule wins cells at n = 12 and 13, the edge of its table, in the
# first three; frozen while every engine still ran the greedy skeleton for
# that rule, so the packaged multilevel table must reproduce them byte for
# byte
GOLDEN_TABLE_N13_SHA256 = {
    ("4", "4"): "3e87f95c03825b5da8f33e25668dcef16825f2c3ffed5ae105e76eaabef4d2e3",
    ("5", "6"): "e054934f2c19ce93b1ad4bd4d2bb7f405b11d806ed9beef78f0c526d5416ece6",
    ("2", "10"): "451ed3d9ba6f647c1188b8aa887d009a6a82c408f19a056ade6434bc1e694295",
    ("3", "12"): "fe29fa042e741bbdfd86ec74f275413768102bd5a5c6a45c1c329b13e8b10c64",
}


@pytest.mark.parametrize("q, d", list(GOLDEN_TABLE_N13_SHA256), ids=lambda v: v)
def test_table_to_n13_csv_matches_golden_digest(capsys, q, d):
    rc, out, _ = run(capsys, "table", "--q", q, "--d", d, "--n-max", "13", "--format", "csv")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLE_N13_SHA256[(q, d)]


@pytest.mark.parametrize("args", list(GOLDEN_EXPLAIN_SHA256), ids="-".join)
def test_bound_explain_matches_golden_digest(capsys, args):
    q, n, d, k, direction = args
    rc, out, _ = run(capsys, "bound", "--q", q, "--n", n, "--d", d, "--k", k,
                     "--dir", direction, "--explain")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_EXPLAIN_SHA256[args]


# rules that another listed rule always beats: sphere-packing and Singleton
# (anticode), single-word and lifted-mrd (improved linkage at m = k), the
# point-count quotient (Drake-Freeman) and the binary r = 2 series (tail-count)
DROPPED_RULES = ("sphere-packing", "singleton", "single-word", "lifted-mrd",
                 "partial-spread:trivial", "partial-spread:binary-r2")


@pytest.mark.parametrize("args", list(GOLDEN_EXPLAIN_SHA256), ids="-".join)
def test_bound_explain_lists_no_dropped_rule(capsys, args):
    q, n, d, k, direction = args
    rc, out, _ = run(capsys, "bound", "--q", q, "--n", n, "--d", d, "--k", k,
                     "--dir", direction, "--explain")
    assert rc == 0
    assert not [line for line in out.splitlines() for rule in DROPPED_RULES if f"<- {rule} " in line]


@pytest.mark.parametrize("d", ["1", "3"])
@pytest.mark.parametrize("skeleton", [None, "1110000,0001101"], ids=["greedy", "skeleton"])
def test_construct_ef_rejects_odd_distance(tmp_path, capsys, d, skeleton):
    path = tmp_path / "ef.scode"
    argv = ["construct", "ef", "--q", "2", "--n", "7", "--k", "3", "--d", d, "-o", str(path)]
    if skeleton:
        argv += ["--skeleton", skeleton]
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert "subspace distance must be a positive even integer" in err
    assert not path.exists()


@functools.lru_cache(maxsize=None)
def _fuzz_base(q):
    """The .scode text of lifted_mrd(q, 4, 2, 4); GF(4) writes a mod= token."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.scode")
        write_code_file(path, lifted_mrd(q, 4, 2, 4))
        with open(path, encoding="utf-8") as fh:
            return fh.read()


# a huge e (p**e would not finish) and a large prime q (trial division up to
# q would not finish) among the ordinary bad values
FUZZ_HEADER_VALUES = ["0", "1", "-1", "2", "3", "4", "5", "9", "x", "", "1,1,1", "0,1",
                      "99999999999", "1000000007"]
FUZZ_ROW_TOKENS = ["0", "1", "2", "3", "4", "-1", "x", "1.0", "99999999999", "1000000007"]


@st.composite
def mutated_scode(draw):
    lines = _fuzz_base(draw(st.sampled_from([2, 4]))).split("\n")
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["header-value", "header-drop", "row-token", "row-drop",
                                     "line-drop", "line-copy", "line-insert"]))
        if kind.startswith("header"):
            tokens = lines[1].split()
            if not tokens:
                continue
            i = draw(st.integers(0, len(tokens) - 1))
            if kind == "header-drop":
                del tokens[i]
            else:
                tokens[i] = tokens[i].partition("=")[0] + "=" + draw(st.sampled_from(FUZZ_HEADER_VALUES))
            lines[1] = " ".join(tokens)
            continue
        if len(lines) < 3:
            continue
        j = draw(st.integers(2, len(lines) - 1))
        tokens = lines[j].split()
        if kind == "row-token" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(FUZZ_ROW_TOKENS))
            lines[j] = " ".join(tokens)
        elif kind == "row-drop" and tokens:
            del tokens[draw(st.integers(0, len(tokens) - 1))]
            lines[j] = " ".join(tokens)
        elif kind == "line-drop":
            del lines[j]
        elif kind == "line-copy":
            lines.insert(j, lines[j])
        elif kind == "line-insert":
            lines.insert(j, draw(st.sampled_from(["", "#", "# part=1", "0 0 0 0", "1 1 1 1"])))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(mutated_scode())
def test_verify_survives_mutated_files(text):
    # any file: a verdict (0 or 3) or a data error (4), never a traceback or a hang
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.scode")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(["verify", path])
        assert time.perf_counter() - start < 5, text
    assert rc in (0, 3, 4), text
    assert rc != 4 or err.getvalue().startswith("data error:"), text


BOUND_6_4_3 = ("bound", "--q", "2", "--n", "6", "--d", "4", "--k", "3", "--dir", "upper")


@pytest.mark.parametrize("name, text, where", [
    ("missing.tsv", None, "{path}: No such file or directory"),
    ("facts", "", "{path}: Is a directory"),
    ("bad.tsv", "# q n d k kind value citation\n*\t6\t4\tx\tlower\t5\tcite\n",
     "{path}:2: invalid literal for int() with base 10: 'x'"),
], ids=["missing", "unreadable", "malformed-row"])
def test_bad_fact_file_is_a_data_error(tmp_path, monkeypatch, capsys, name, text, where):
    path = tmp_path / name
    if name == "facts":
        path.mkdir()
    elif text is not None:
        path.write_text(text, encoding="utf-8")
    monkeypatch.setenv("SCODES_FACTS", str(path))
    for argv in (BOUND_6_4_3, ("table", "--q", "2", "--d", "4", "--n-max", "6")):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (4, "")
        assert err == "data error: " + where.format(path=path) + "\n"


def test_no_facts_does_not_read_the_fact_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SCODES_FACTS", str(tmp_path / "missing.tsv"))
    rc, out, _ = run(capsys, *BOUND_6_4_3, "--no-facts")
    assert (rc, out) == (0, "81\n")
    rc, out, _ = run(capsys, "table", "--q", "2", "--d", "4", "--n-max", "6", "--no-facts")
    assert rc == 0 and "| 6 | 3 | " in out


def test_construct_exits_3_when_the_code_misses_its_distance(tmp_path, monkeypatch, capsys):
    short = lifted_mrd(2, 4, 2, 2)
    monkeypatch.setattr(cli, "_build", lambda *args: Cdc(2, 4, 2, 4, short.words))
    path = tmp_path / "c.scode"
    rc, out, err = run(capsys, "construct", "lmrd", "--q", "2", "--n", "4", "--k", "2", "--d", "4",
                       "-o", str(path))
    assert (rc, out) == (3, "")
    assert err == "verification FAILED: min distance 2 < declared 4\n"
    assert not path.exists()


def test_wrong_magic_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "c.scode"
    path.write_text("SCODE 2\nq=2 p=2 e=1 n=4 k=2 d=4 count=0\n", encoding="utf-8")
    rc, _, err = run(capsys, "verify", str(path))
    assert rc == 4
    assert err == f"data error: {path}: missing SCODE 1 magic\n"


def test_fact_above_the_upper_bound_makes_table_exit_4(tmp_path, monkeypatch, capsys):
    # A_2(6,4;3) = 77, so a booked lower bound of 2^10 contradicts the upper
    # bound: the fact table is at fault, not the query
    facts = tmp_path / "facts.tsv"
    facts.write_text("*\t6\t4\t3\tlower\tq^10\tcontradiction\n", encoding="utf-8")
    monkeypatch.setenv("SCODES_FACTS", str(facts))
    rc, out, err = run(capsys, "table", "--q", "2", "--d", "4", "--n-max", "6")
    assert (rc, out) == (4, "")
    assert err.startswith("data error: inconsistent bounds:\n")
    assert run(capsys, "table", "--q", "2", "--d", "4", "--n-max", "6", "--no-facts")[0] == 0


def test_fact_that_depends_on_itself_makes_bound_exit_4(tmp_path, monkeypatch, capsys):
    facts = tmp_path / "facts.tsv"
    facts.write_text("*\t9\t4\t3\tlower\t1+A(9,4;3)\tself-referential\n", encoding="utf-8")
    monkeypatch.setenv("SCODES_FACTS", str(facts))
    rc, out, err = run(capsys, "bound", "--q", "2", "--n", "9", "--d", "4", "--k", "3", "--dir", "lower")
    assert (rc, out) == (4, "")
    assert err == "data error: bound (2, 9, 4, 3, 2) depends on itself (check the fact table)\n"
    assert run(capsys, "bound", "--q", "2", "--n", "9", "--d", "4", "--k", "3", "--dir", "lower", "--no-facts")[0] == 0


# Every line the command line prints for help, usage errors and a few
# ordinary queries, frozen at 80 columns: a change to the parsers that moves
# one character of help or error text changes this digest.
CLI_TEXT_ARGVS = (
    [], ["-h"], ["bogus"], ["--q", "2"],
    ["bound", "-h"], ["construct", "-h"], ["verify", "-h"],
    ["table", "-h"], ["expand", "-h"], ["sharpfloor", "-h"],
    ["table"],
    ["table", "--q", "x", "--d", "4", "--n-max", "6"],
    ["bound", "--q", "2", "--n", "9", "--d", "6", "--k", "4", "--dir", "side"],
    ["construct", "nope", "--q", "2", "-o", "x"],
    ["construct", "lmrd", "--q", "2", "--n", "6", "--k", "3", "--d", "4"],
    ["verify"],
    ["verify", "a", "b"],
    ["verify", "--expect-d", "x", "f"],
    ["table", "--q", "2", "--d", "4", "--n-max", "6", "--bogus"],
    ["tab", "--q", "2"],
    ["table", "--n-m", "6", "--q", "2", "--d", "4", "--format", "csv"],
    ["table", "--q=2", "--d=4", "--n-max=6", "--format", "md"],
    ["expand", "--value", "137", "--q", "3", "--r", "3"],
    ["sharpfloor", "--a", "17374", "--b", "15", "--q", "2", "--r", "3"],
    ["bound", "--q", "2", "--n", "9", "--d", "6", "--k", "4", "--dir", "upper", "--explain"],
)
GOLDEN_CLI_TEXT_SHA256 = "e206b4550d7f5b7904793813a17e84afcc6ca65ac6af33cf4a520cff9875115f"


def test_cli_text_matches_golden_digest(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    runs = [repr((argv, *run(capsys, *argv))) for argv in CLI_TEXT_ARGVS]
    assert len(runs) == 25
    assert hashlib.sha256("\n".join(runs).encode()).hexdigest() == GOLDEN_CLI_TEXT_SHA256


def test_a_named_command_builds_only_its_own_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert run(capsys, "table", "--q", "2", "--d", "4", "--n-max", "6")[0] == 0
    assert built == ["scodes table"]
    for argv in (["-h"], ["bogus"]):  # help and unknown commands get the full parser
        built.clear()
        run(capsys, *argv)
        assert built[0] == "scodes" and len(built) == 1 + len(cli._COMMANDS)
