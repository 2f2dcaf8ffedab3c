"""Closed-loop benchmark of ``alaselect select``.

One process per workload runs ``select`` in-process through
``alaselect.cli.main``, one operation at a time, on CSV inputs generated
from ``--seed``.  Each operation is a full ``select`` run (ingest, data
pass, search, output files) and its outputs are checked.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics.

    python3 bench/run.py --workload enum-logistic --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 55 --trace 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine.  Spans and a full result record go to ``.bench_run/`` in the
checkout.  The program is imported from ``src/`` of the same checkout; the
benchmark exits with status 2 when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# After each operation the data pass is timed again, repeatedly, until this
# share of the operation's time is spent (at least once), so the set-up
# samples span the same stretch of machine time as the operations.
SETUP_SHARE = 0.1
# select_s and setup_s are this percentile of their samples.  The processor
# alternates between a slow level and fast spells whose share of a run
# changes from minute to minute; a short sample falls wholly inside one of
# them and reads that level, so the median of such samples jumps between the
# two levels from run to run.  The 90th percentile stays on the slow level
# and spreads least across runs (see bench/README.md).
PERCENTILE = 90


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="workload name from BENCHMARK.json")
    p.add_argument("--all", action="store_true",
                   help="run every workload, one process each, and print a table")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    return args


def _cap_threads() -> int:
    """Cap BLAS threads at the cores this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def _machine(nproc: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def _run_op(inp, out_dir: Path, fresh_scorer, tracer, op_id: int):
    """One ``select`` call and its output checks.

    Returns the wall time of ``cli.main``, the failed checks, and the size
    facts of the output that the per-layer metrics are based on.
    """
    from alaselect import cli
    from workloads import check_outputs, support_facts

    argv = inp.argv(str(out_dir))
    code = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.operation(op_id):
                code = cli.main(argv)
    except Exception:
        traceback.print_exc()
    elapsed = time.perf_counter() - t0
    facts = (0, 0)
    if code != 0:
        failures = [f"select exited with {code}"]
    else:
        try:
            failures = check_outputs(inp, out_dir, fresh_scorer)
            facts = support_facts(out_dir)
        except Exception as exc:
            traceback.print_exc()
            failures = [f"output check raised {exc!r}"]
    shutil.rmtree(out_dir, ignore_errors=True)
    return elapsed, failures, facts


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Set-up timing, then the closed loop of ``select`` operations."""
    import numpy as np
    from tracing import OpFacts, Tracer, layer_metrics
    from workloads import WORKLOADS, data_pass

    inp = WORKLOADS[name](seed, work)
    setup = []

    def time_data_pass():
        t0 = time.perf_counter()
        fresh = data_pass(inp)
        setup.append(time.perf_counter() - t0)
        return fresh

    fresh = time_data_pass()
    tracer = Tracer() if trace else None
    plain, traced, every, facts, failures = [], [], [], [], []

    # an operation starts only if it would end about on time, so a run
    # lasts close to --seconds whatever the length of one operation
    deadline = time.perf_counter() + seconds
    op, last = 0, 0.0
    while op < (2 if trace else 1) or time.perf_counter() + last / 2 < deadline:
        with_trace = trace and op % 2 == 1
        elapsed, failed, (support, survivors) = _run_op(
            inp, work / f"op{op}", fresh, tracer if with_trace else None, op
        )
        every.append(elapsed)
        if failed:
            failures.append((op, failed))
            print(f"op {op} failed: {'; '.join(failed)}", file=sys.stderr)
        else:
            (traced if with_trace else plain).append(elapsed)
        if with_trace:
            facts.append(OpFacts(op, inp.n_cells, inp.n_scans, support,
                                 survivors if inp.screened else 0))
        spent = time.perf_counter()
        while True:
            time_data_pass()
            if time.perf_counter() - spent >= SETUP_SHARE * elapsed:
                break
        last = time.perf_counter() - spent + elapsed
        op += 1

    if trace:
        metrics = layer_metrics(tracer, [f for f in facts if f.support_size])
        if plain and traced:
            metrics["trace.overhead_frac"] = (
                np.median(traced) / np.median(plain) - 1.0, "ratio"
            )
        tracer.write(RUN_DIR / f"spans-{name}.npz")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            # a run whose every operation failed still reports a time
            "select_s": (float(np.percentile(plain or every, PERCENTILE)), "s"),
            "setup_s": (float(np.percentile(setup, PERCENTILE)), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "select_s_plain": plain,
        "select_s_traced": traced,
        "setup_s_each": setup,
        "failures": failures,
    }
    return op, len(failures), metrics, detail


def _run_one(args) -> int:
    if not (SRC / "alaselect" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'alaselect'}", file=sys.stderr)
        return 2
    nproc = _cap_threads()
    sys.path[:0] = [str(SRC), str(BENCH)]
    import alaselect

    if Path(alaselect.__file__).resolve().parent != SRC / "alaselect":
        print(f"error: alaselect imported from {alaselect.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    machine = _machine(nproc)
    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        attempted, failed, metrics, detail = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # the result line carries the metrics BENCHMARK.json lists for this
    # mode; the record keeps every metric, for workloads outside that file
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    every = {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: m for k, m in every.items() if k in listed},
    }
    record = RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"machine": machine, "detail": detail, "result": result, "every_metric": every},
        indent=1,
    ))
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            print(f"{workload}: exit status {done.returncode}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        attempted, failed = result["attempted"], result["failed"]
        print(f"{workload}: {attempted} operations, correct={result['correct']}")
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("failed_frac", failed / attempted, "ratio"))
        for key, value, unit in rows:
            print(f"  {key:<42} {value:>14.6g} {unit}")
        status |= int(failed > 0)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    return _run_all(args) if args.all else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
