"""scodes benchmark: run one workload for a fixed time and print its metrics.

Run from the repository root (the library is imported from ./src):

    python3 perfbench/run.py --workload assemble-q2 --seed 1 --seconds 30 --trace 0

Workloads: assemble-q2, verify-gfq, build-large, bounds (see workloads.py).

A run first sets the library up SETUPS times (fresh import, field tables,
fact table, parallelism search).  `setup_s` is the median set-up time in
reference units (see below), times REF_NOMINAL_S; `setup_raw_s` is the
median in plain seconds.  It
then runs rounds of the workload until the next round would overrun
--seconds (at least one round).  Each unit of work (one phase of one code,
window or query) is timed in every round, in seconds and in multiples of
a reference run bracketing it (see workloads.Round); a metric is the sum
over units of their medians over the rounds.  `wall_ref` is the gated
time metric; `wall_s` and the phase times are printed in seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one round
untraced, one round with the layer wrappers of tracer.py installed, then
the kernel probes, and prints the per-layer metrics.

Every line before the last is human-readable: the run record (git SHA,
Python version, nproc), then one `metric <name> <value> <unit>` line per
metric.  The last line is one JSON object with the keys correct,
attempted, failed and metrics.  The run record, and in traced runs the
spans, are also written under .perfbench/ in the current directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import types

from probes import FIELDS, run as run_probes
from tracer import LAYERS, SELF_TIMED, Tracer
from workloads import WORKLOADS, Round, reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 15
# Time of workloads.reference_work on an unloaded 2-vCPU virtual machine
# (Python 3.11); it converts set-up time in reference units back to seconds.
REF_NOMINAL_S = 0.0017

# End-to-end metrics gated by BENCHMARK.json; present on every workload.
GATED = ("setup_s", "wall_ref", "peak_rss_mb")
# End-to-end metrics of single workloads, printed but not gated (they are
# zero on the other workloads).
PHASES = (("construct_s", "construct"), ("io_s", "io"), ("verify_s", "verify"),
          ("table_s", "table"), ("bound_query_s", "query"))


def git_sha(root):
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_once():
    """Fresh import of the library plus the work every workload needs first.

    Returns the time in seconds, the time over the mean of two bracketing
    reference runs (see workloads.Round), the modules and the parallelism."""
    for name in [n for n in sys.modules if n == "scodes" or n.startswith("scodes.")]:
        del sys.modules[name]
    gc.collect()  # free the previous set-up's modules before timing this one
    before = reference_s()
    t0 = time.perf_counter()
    lib = types.SimpleNamespace(**{name: importlib.import_module("scodes." + name) for name in LAYERS})
    for q in FIELDS:
        lib.gfq.GF(q)
    lib.bounds.load_default_facts()
    par = lib.constructions.find_parallelism(2, 4, 2)
    dt = time.perf_counter() - t0
    return dt, 2 * dt / (before + reference_s()), lib, par


def load_golden():
    gdir = os.path.join(HERE, "golden")
    with open(os.path.join(gdir, "values.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    golden["tables"] = {}
    for name in os.listdir(gdir):
        if name.endswith(".csv"):
            with open(os.path.join(gdir, name), encoding="utf-8", newline="") as fh:
                golden["tables"][name] = fh.read()
    return golden


def run_rounds(workload, lib, par, golden, inputs, workdir, seconds):
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rnd = Round()
        workload.run_round(lib, par, golden, inputs, rnd, workdir)
        rounds.append(rnd)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return rounds


def unit_medians(rounds, attr):
    """Median over the rounds of each unit's time."""
    keys = {key for rnd in rounds for key in getattr(rnd, attr)}
    return {key: statistics.median(getattr(rnd, attr).get(key, 0.0) for rnd in rounds) for key in keys}


def end_to_end(rounds, setups):
    secs = unit_medians(rounds, "unit_s")
    out = {"setup_s": (statistics.median(ref for _, ref in setups) * REF_NOMINAL_S, "s"),
           "setup_raw_s": (statistics.median(dt for dt, _ in setups), "s"),
           "wall_ref": (sum(unit_medians(rounds, "unit_ref").values()), "ref"),
           "wall_s": (sum(secs.values()), "s")}
    for name, phase in PHASES:
        times = [t for (p, _), t in secs.items() if p == phase]
        if times:
            out[name] = (sum(times), "s")
    pairs = rounds[0].counts["certified_pairs"]
    if pairs:
        out["verify_pairs_per_s"] = (pairs / out["verify_s"][0], "pairs/s")
    return out


def per_layer(tracer, rnd, untraced_wall_s, probes):
    """Per-layer metrics of one traced round plus the kernel probes."""
    st = tracer.stat
    out = {"gfq.calls": (tracer.gfq_calls, "count")}
    for name in SELF_TIMED:
        out[name + ".calls"] = (st(name).calls, "count")
        out[name + ".self_s"] = (st(name).self_s, "s")
    gab = st("rankmetric.gabidulin")
    out["rankmetric.words_per_s"] = (gab.items / gab.incl_s if gab.incl_s else 0.0, "words/s")
    out["constructions.words"] = (rnd.counts["words"], "count")
    pairs = rnd.counts["verify_pairs"]
    out["verify.pairs"] = (pairs, "count")
    kernel_calls = rnd.counts["verify_kernel_calls"]
    out["verify.kernel_calls_per_pair"] = (kernel_calls / pairs if pairs else 0.0, "ratio")
    out["cli.bytes"] = (rnd.counts["bytes"], "bytes")
    for fn in ("best_upper", "best_lower"):
        name = "bounds." + fn
        distinct, _, repeats = tracer.args_seen[name]
        calls = st(name).calls
        out[name + ".calls"] = (calls, "count")
        out[name + ".distinct_args"] = (len(distinct), "count")
        if fn == "best_upper":
            out[name + ".hit_ratio"] = (repeats / calls if calls else 0.0, "ratio")
    out["bounds.self_s"] = (tracer.layer_self_s("bounds"), "s")
    traced_wall_s = sum(tracer.span_wall_s("phase." + phase) for _, phase in PHASES)
    out["trace.overhead_frac"] = (traced_wall_s / untraced_wall_s - 1, "ratio")
    out.update(probes)
    return out


def traced_run(workload, lib, par, golden, inputs, workdir, seed, trace_dir):
    """One untraced reference round, one traced round, then the probes."""
    untraced = Round()
    workload.run_round(lib, par, golden, inputs, untraced, workdir)
    tracer = Tracer()
    traced = Round(tracer)
    tracer.install()
    try:
        with tracer.span("round"):
            workload.run_round(lib, par, golden, inputs, traced, workdir)
    finally:
        tracer.uninstall()
    probes = run_probes(lib, golden, random.Random(f"probes:{seed}"), traced)
    os.makedirs(trace_dir, exist_ok=True)
    tracer.write_spans(os.path.join(trace_dir, f"{workload.name}-seed{seed}-{os.getpid()}.json"))
    return [untraced, traced], per_layer(tracer, traced, untraced.wall_s, probes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "scodes", "__init__.py")):
        print(f"error: no scodes sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workload = WORKLOADS[args.workload]
    golden = load_golden()
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "git_sha": git_sha(root), "python": platform.python_version(), "nproc": os.cpu_count()}
    print("# run " + json.dumps(record), flush=True)

    setups = []
    for _ in range(SETUPS):
        dt, ref, lib, par = setup_once()
        setups.append((dt, ref))
    if os.path.dirname(os.path.abspath(lib.gfq.__file__)) != os.path.join(src, "scodes"):
        print(f"error: imported scodes from {lib.gfq.__file__}, not from {src}", file=sys.stderr)
        return 2

    inputs = workload.prepare(random.Random(f"{workload.name}:{args.seed}"), golden)
    out_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            rounds, metrics = traced_run(workload, lib, par, golden, inputs, workdir, args.seed,
                                         os.path.join(out_dir, "traces"))
        else:
            rounds = run_rounds(workload, lib, par, golden, inputs, workdir, args.seconds)
            metrics = end_to_end(rounds, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
        metrics["ops_failed_frac"] = (failed / attempted, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"rounds {len(rounds)}; operations attempted {attempted}, failed {failed}")

    gated = list(metrics) if args.trace else GATED
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in gated}}
    record.update(result, all_metrics={k: v[0] for k, v in metrics.items()},
                  rounds=[{f"{phase}:{unit}": [t, r.unit_ref[(phase, unit)]]
                           for (phase, unit), t in r.unit_s.items()} for r in rounds])
    run_dir = os.path.join(out_dir, "runs")
    os.makedirs(run_dir, exist_ok=True)
    record_name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    with open(os.path.join(run_dir, record_name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
