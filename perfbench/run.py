"""The repository benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload cells --seed 1 --seconds 30 --trace 0

A run first starts `SETUP_SAMPLES` set-up-only workers (`worker.py`), one
at a time.  Then a pass starts two workers at once, each a fresh process
that runs the workload's whole op list once and checks every output with an
oracle.  Passes repeat while one more would still end within `--seconds`;
there is always at least one.

Every time is converted to seconds at reference speed: each worker reads a
fixed gauge of interpreter speed between its ops, and each time is scaled by
`GAUGE_REFERENCE_S` over the readings around it.  This cancels the
minutes-long slowdowns of a shared host, which no per-run statistic can.

`--trace 0` reports the end-to-end metrics.  `wall_s` and `cpu_s` add up,
over the ops, each op's fastest time among all workers of the run, the
steadiest estimate of the op's own cost.  `setup_s` and `peak_rss_mb` are
medians over the set-up samples and the workers.  `--trace 1` makes each pass one untraced and one
traced worker and reports the per-layer metrics from the traced worker's
spans, lower medians over passes, with the tracing overhead as traced minus
untraced op time.

Ops that fail their oracle or raise are counted in `failed` (the failed ratio
is failed / attempted).  The run record (seed, Python version, CPU count,
platform, git commit, every pass and span) goes to `perfbench/out/`; the
last line of standard output is the result JSON.  Workloads, metrics and
their rationale are in `perfbench/README.md`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cells", "tables", "recursion", "gate")
SETUP_SAMPLES = 5  # set-up-only workers per run, one at a time
RUN_LIMIT_S = 170  # the whole run, children included, must end well inside 180 s

# worker.gauge() on the reference host (2-core shared VM, Python 3.11.7) when
# nothing else slows it.  Times are reported in seconds at that speed: each
# is scaled by this over the gauge readings taken around it, which largely cancels
# the minutes-long slowdowns of a shared host.  Raw times stay in the record.
GAUGE_REFERENCE_S = 0.0029
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# span name -> per-layer time metric "<name>_s"
SPAN_TIMES = (
    "gf2r.field",
    "gf2r.first_use",
    "ksum.ktable",
    "ksum.moments",
    "classical.histogram",
    "classical.transversal",
    "classical.parabolic",
    "dcsum.closed_histogram",
    "wcode.prefix",
    "pmi.t1k",
    "verify.field",
    "verify.kloosterman",
    "verify.groups",
    "verify.expsum",
    "verify.codes",
    "verify.pless",
    "verify.thma",
)
SPAN_COUNTS = ("ksum.pairs", "classical.elements", "classical.cosets", "verify.checks", "verify.failures")


def speed(gauge_s: float) -> float:
    """Factor that converts a time measured at this gauge reading to reference speed."""
    return GAUGE_REFERENCE_S / gauge_s


def layer_metrics(worker: dict, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced worker: (value, unit) by name."""
    scale = [speed(op["gauge_s"]) for op in worker["ops"]]
    spans = worker["spans"]
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_TIMES:
        seconds = sum((s["end"] - s["start"]) * scale[s["op"]] for s in spans if s["name"] == name)
        out[f"{name}_s"] = (seconds, "s")
    for name in SPAN_COUNTS:
        out[name] = (sum(s["counts"].get(name, 0) for s in spans), "count")
    hist, ktab = out["classical.histogram_s"][0], out["ksum.ktable_s"][0]
    kernel = hist - out["classical.transversal_s"][0] - out["classical.parabolic_s"][0]
    out["classical.kernel_s"] = (kernel, "s")
    out["classical.elements_per_s"] = (out["classical.elements"][0] / hist if hist else 0.0, "1/s")
    out["ksum.pairs_per_s"] = (out["ksum.pairs"][0] / ktab if ktab else 0.0, "1/s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def op_seconds(worker: dict, key: str) -> list[float]:
    """Each op's `wall_s` or `cpu_s` at reference speed."""
    return [op[key] * speed(op["gauge_s"]) for op in worker["ops"]]


def summarize(setups: list[dict], passes: list[list[dict]], traced: bool) -> dict:
    """The result line from the set-up samples and every worker of every pass.

    Times are at reference speed, each by the gauge readings taken around it.
    Untraced: `setup_s` is the median over the set-up samples; `wall_s` and
    `cpu_s` sum, over the ops, each op's fastest time among the workers;
    `peak_rss_mb` is the median over workers.  Traced: each pass is
    (untraced, traced) and every per-layer metric is the lower median over
    passes, so exact counts stay integers.
    """
    results = [w for p in passes for w in p]
    attempted = sum(w["attempted"] for w in results)
    failed = sum(w["failed"] for w in results)
    if traced:
        samples = [
            layer_metrics(t, sum(op_seconds(t, "wall_s")) - sum(op_seconds(u, "wall_s")))
            for u, t in passes
        ]
        metrics = {
            name: {"value": statistics.median_low(s[name][0] for s in samples), "unit": unit}
            for name, (_, unit) in samples[0].items()
        }
    else:
        values = {
            "setup_s": statistics.median(w["setup_s"] * speed(w["setup_gauge_s"]) for w in setups),
            "wall_s": sum(map(min, zip(*(op_seconds(w, "wall_s") for w in results)))),
            "cpu_s": sum(map(min, zip(*(op_seconds(w, "cpu_s") for w in results)))),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in results),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workers(workload: str, seed: int, modes: tuple[str, ...], deadline: float) -> list[dict]:
    """Start a worker per mode at once and wait for all of them."""
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for mode in modes
    ]
    outputs = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
            sys.stderr.write(err)
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited {proc.returncode}")
            outputs.append(json.loads(out.splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return outputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "kloosterman").is_dir():
        print(f"error: no library source at {ROOT / 'src' / 'kloosterman'}", file=sys.stderr)
        return 2

    # a terminated run still kills and reaps its workers (run_workers' finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    traced = args.trace == 1
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    setups = [run_workers(args.workload, args.seed, ("setup",), deadline)[0] for _ in range(SETUP_SAMPLES)]
    passes: list = []
    while True:
        passes.append(run_workers(args.workload, args.seed, ("0", "1" if traced else "0"), deadline))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    result = summarize(setups, passes, traced)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "failed_ratio": result["failed"] / result["attempted"],
        "setups": setups,
        "passes": passes,
        "result": result,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    fields = ("workload", "seed", "python", "nproc", "platform", "git_commit", "failed_ratio")
    summary = {key: record[key] for key in fields} | {"passes": len(passes), "record": str(path.relative_to(ROOT))}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
