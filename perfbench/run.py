#!/usr/bin/env python3
"""xling benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {prep,synth,pipeline,all} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  The inputs are made from ``--seed``;
the workload then runs in a fresh Python process with the checkout's
``src`` on ``PYTHONPATH``.  ``--trace 0`` prints the end-to-end metrics
named in ``BENCHMARK.json``, ``--trace 1`` the per-layer ones.  The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only if every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("prep", "synth", "pipeline")
SETUP_SAMPLES = 3  # fresh processes whose set-up time is measured per run
BUDGET_S = 170.0  # every process of one workload run ends within this
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


# ------------------------------------------------------------ processes

class Runner:
    """Starts workload processes under one deadline; kills what overruns."""

    def __init__(self, root: Path, work: Path, workload: str, budget_s: float):
        self.root, self.work, self.workload = root, work, workload
        self.deadline = time.monotonic() + budget_s
        self.env = dict(os.environ)  # BLAS thread settings are passed on as found
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.results = 0

    def role(self, role: str, *extra) -> dict:
        self.results += 1
        result = self.work / f"result-{self.results}.json"
        argv = [sys.executable, str(HERE / "workload.py"), role,
                "--workload", self.workload, "--work", str(self.work),
                "--result", str(result), *map(str, extra)]
        if role != "prepare":
            argv += ["--spawned", repr(time.monotonic())]
        self._call(argv, role)
        if role == "prepare":
            return {}
        return json.loads(result.read_text(encoding="utf-8"))

    def _call(self, argv, role: str) -> None:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time budget spent before the {role} process")
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, start_new_session=True)
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # the workload's pool workers share its process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code is None:
            raise BenchError(f"{role} process overran the {BUDGET_S:.0f} s budget")
        if code != 0:
            raise BenchError(f"{role} process exited {code}")


# -------------------------------------------------------------- metrics

def percentile(samples, q: int) -> float:
    """q-th percentile (q a multiple of 10), linear between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[q // 10 - 1]


def end_to_end(setup_samples, measured) -> dict:
    records = measured["records"]
    per_utt_ms = [1000.0 * r["s"] / r["utts"] for r in records]
    return {
        "setup_s": statistics.median(setup_samples),
        "utt_ms.p50": percentile(per_utt_ms, 50),
        "utt_ms.p90": percentile(per_utt_ms, 90),
        # not gated: an utterance's phoneme count is random content (README.md)
        "phonemes_per_s": sum(r["phonemes"] for r in records) / sum(r["s"] for r in records),
        # median over units, like the latencies: host bursts touch few units
        "audio_x_rt": statistics.median(r["audio_s"] / r["s"] for r in records),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def per_layer(names, trace_dir, traced, untraced) -> tuple[dict, dict]:
    import tracer

    spans, counters = tracer.load_spans(trace_dir)
    table = tracer.summarize(spans)
    values = dict(counters)
    for layer in tracer.LAYERS:
        rows = [row for name, row in table.items() if name.startswith(layer + ".")]
        values[f"{layer}.self_s"] = sum(row["self_s"] for row in rows)
        values[f"{layer}.fail"] = sum(row["fail"] for row in rows)
    for name, row in table.items():
        for key in ("calls", "s", "fail"):
            values[f"{name}.{key}"] = row[key]
    flops = sum(counters.get(f"model.{k}_flops", 0) for k in ("attn", "conv", "other"))
    forward_s = table.get("model.forward", {}).get("s", 0.0)
    values["model.gflops_per_s"] = flops / 1e9 / forward_s if forward_s else 0.0
    # traced time of each unit against its median untraced time (separate process)
    plain = {}
    for r in untraced["records"]:
        plain.setdefault(r["id"], []).append(r["s"])
    common = [r for r in traced["records"] if r["id"] in plain]
    traced_s = sum(r["s"] for r in common)
    untraced_s = sum(statistics.median(plain[r["id"]]) for r in common)
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    values["trace.spans"] = len(spans)
    values["trace.units"] = len(traced["records"])
    # a function or counter the workload never reaches reads 0
    return {name: values.get(name, 0) for name in names}, table


# ------------------------------------------------------------------ run

def run_workload(args, root: Path, spec: dict) -> dict:
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, args.workload, BUDGET_S)
        runner.role("prepare", "--seed", args.seed, *(["--small"] if args.small else []))
        measured = runner.role("measure", "--seconds", args.seconds)
        if args.trace:
            traced = runner.role("trace")
            names = [m["name"] for m in spec["per_layer"]]
            metrics, table = per_layer(names, work / "trace", traced, measured)
            units = spec["per_layer"]
            children = [measured, traced]
        else:
            setups = [measured["setup_s"]]
            for _ in range(1 if args.small else SETUP_SAMPLES - 1):
                setups.append(runner.role("setup")["setup_s"])
            metrics = end_to_end(setups, measured)
            units, table = spec["end_to_end"], None
            children = [measured]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    attempted = failed = 0
    problems = []
    for child in children:
        for record in child["records"]:
            attempted += record["utts"]
            failed += record["failed"]
            problems += [f"{record['id']}: {p}" for p in record["problems"]]
        attempted += 1  # the reference unit
        failed += bool(child["reference_problems"])
        problems += [f"reference: {p}" for p in child["reference_problems"]]
    gated = {m["name"]: {"value": metrics.pop(m["name"]), "unit": m["unit"]} for m in units}
    return {
        "workload": args.workload,
        "metrics": gated,
        "ungated": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "units": len(measured["records"]),
        "seconds": sum(r["s"] for r in measured["records"]),
        "versions": measured["versions"],
        "table": table,
    }


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(args, root: Path, outcome: dict) -> None:
    env = {
        "workload": outcome["workload"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        **outcome["versions"],
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }
    print("# env " + json.dumps(env))
    ratio = outcome["failed"] / outcome["attempted"]
    print(f"{outcome['workload']}: {outcome['units']} timed units in "
          f"{outcome['seconds']:.2f} s; failed {outcome['failed']}/{outcome['attempted']} "
          f"(failed_ratio {ratio:.4f})")
    for name, metric in outcome["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in outcome["ungated"].items():
        print(f"  {name:<44} {value:>16.6g} (not in BENCHMARK.json)")
    if outcome["table"]:
        print(f"  {'span':<36} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'fail':>5}")
        for name, row in sorted(outcome["table"].items()):
            print(f"  {name:<36} {row['calls']:>8} {row['s']:>10.4f} "
                  f"{row['self_s']:>10.4f} {row['fail']:>5}")
    for problem in outcome["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="xling benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs and two set-up samples, for the self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "xling" / "cli.py").is_file():
        print(f"error: {root} holds no xling source tree (src/xling)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    outcomes = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            outcome = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}),
                                   root, spec)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        report(args, root, outcome)
        outcomes.append(outcome)

    if len(outcomes) == 1:
        metrics = outcomes[0]["metrics"]
    else:
        metrics = {f"{o['workload']}.{name}": metric
                   for o in outcomes for name, metric in o["metrics"].items()}
    failed = sum(o["failed"] for o in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
