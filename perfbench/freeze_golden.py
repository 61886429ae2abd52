"""Recompute the golden values that every benchmark run checks against.

Run from the repository root, on the commit whose outputs are the
reference (the values in golden/ were frozen from the seed commit):

    python3 perfbench/freeze_golden.py

It writes golden/values.json (code sizes, digests of the constructed
codes, the exact minimum distance of the 4797-word code with a witness
pair, deep bound values, the LP probe value) and one CSV per
`scodes table` run of the bounds workload.  It takes about a minute.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import probes  # noqa: E402
from run import setup_once  # noqa: E402
from workloads import (BUILD_LARGE, GFQ_SUBSETS, QUERIES, TABLES, assemble_q2,  # noqa: E402
                       code_digest, table_name)


def code_facts(code):
    return {"size": len(code.words), "digest": code_digest(code)}


def main():
    *_, lib, par = setup_once()
    code = assemble_q2(lib, par)
    report = lib.verify.min_distance(code, "exact")
    values = {"assemble-q2": dict(code_facts(code), min_distance=report.min_distance,
                                  witness=list(report.witness))}
    values["verify-gfq"] = {f"q{q}n{n}": code_facts(lib.constructions.lifted_mrd(q, n, 2, 4))
                            for q, n, _ in GFQ_SUBSETS}
    values["build-large"] = {label: code_facts(build(lib)) for label, _, build in BUILD_LARGE}
    values["bounds"] = {}
    for direction, n, k in QUERIES:
        engine = lib.bounds.BoundEngine()
        query = engine.best_upper if direction == "upper" else engine.best_lower
        values["bounds"][f"{direction}_{n}_{k}"] = str(query(2, n, 4, k).value)
    values["lp_bound"] = lib.bounds.lp_bound(*probes.LP_QUERY).value

    gdir = os.path.join(HERE, "golden")
    os.makedirs(gdir, exist_ok=True)
    with open(os.path.join(gdir, "values.json"), "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for q, d, n_max in TABLES:
        out = io.StringIO()
        with redirect_stdout(out):
            rc = lib.cli.main(["table", "--q", str(q), "--d", str(d), "--n-max", str(n_max),
                               "--format", "csv"])
        if rc != 0:
            raise SystemExit(f"table q={q} d={d} n-max={n_max} exited with {rc}")
        with open(os.path.join(gdir, table_name(q, d, n_max)), "w", encoding="utf-8", newline="") as fh:
            fh.write(out.getvalue())


if __name__ == "__main__":
    main()
