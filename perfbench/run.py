"""bmlocal benchmark: one closed-loop client calling ``bmlocal.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the checkout's ``src/``.
A request is one in-process ``bmlocal.cli.main([command, "--config", f,
"--out", g])`` call; the next request starts when the previous one has
returned.  Every report is checked by ``oracles.py``, which shares no
code with bmlocal.  Workloads are defined in ``workloads.py``.  The run
pins itself to one CPU, so that it is not moved between CPUs whose
speeds differ.

``--trace 0`` reports the end-to-end metrics:

* latency_p50_ms, latency_tail_ms: median request latency, and the
  highest percentile with ten requests beyond it (the 11th slowest);
* throughput_rps: median over complete blocks of verified requests per
  second of request time;
* verified_share: share of requests that returned exit code 0 and
  passed their oracle;
* peak_rss_mb: peak RSS once the workload's first ``prefix`` requests
  are done, a fixed amount of work;
* setup_s: median over fresh interpreters of the time ``import
  bmlocal.cli`` takes.

Times are at reference speed (``speed.py``): each is scaled by the speed
probe timed around it, which cancels most of the drift of a shared host.
The wall-clock values are printed beside them.

``--trace 1`` first runs the same workload and seed untraced in a child
process, then runs it traced with the spans of ``tracing.py`` and
reports the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it stamp the environment and give the digest of the first
``prefix`` reports.  The full result, and with ``--trace 1`` the spans,
are written under ``.perfbench_runs/``; request files live in
``.perfbench_work/`` while the run lasts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path

import numpy as np

import oracles
import speed
import tracing
from workloads import WORKLOADS, request_blocks

ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 7
BLOCKS_PER_CHUNK = 40
TAIL_BEYOND = 10

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import speed\n"
    "before = [speed.probe() for _ in range(5)]\n"
    "t0 = time.perf_counter()\n"
    "import bmlocal.cli\n"
    "took = time.perf_counter() - t0\n"
    "print(took, speed.scale(took, before + [speed.probe() for _ in range(5)]))\n"
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> list:
    """(wall, reference-speed) seconds to import bmlocal.cli, each pair from
    a fresh interpreter.

    One untimed import first, so that compiling the package's bytecode,
    which users pay once, is not counted."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if out.returncode != 0:
            fail(f"importing bmlocal.cli failed:\n{out.stderr}")
        if i:
            samples.append(tuple(float(x) for x in out.stdout.split()))
    return samples


def import_cli():
    """bmlocal.cli from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    import bmlocal.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "bmlocal").resolve():
        fail(f"imported {cli.__file__}, not the checkout's src/")
    return cli


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


class Requests:
    """Config files of one run, written a chunk of blocks at a time."""

    def __init__(self, workload, seed, workdir: Path):
        self.blocks = enumerate(request_blocks(workload, seed))
        self.workdir = workdir
        self.pending = deque()
        self.written = 0

    def write_chunk(self):
        for _ in range(BLOCKS_PER_CHUNK):
            block, requests = next(self.blocks)
            for command, config in requests:
                path = self.workdir / f"config-{self.written}.json"
                path.write_text(json.dumps(config))
                self.pending.append((block, command, config, str(path)))
                self.written += 1

    def next(self):
        if not self.pending:
            self.write_chunk()
        return self.pending.popleft()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(cli, requests: Requests, seconds, prefix, tracer=None):
    """Run requests back to back for ``seconds`` of measured time.

    Checking a report, writing further config files and timing the speed
    probe between requests pause the clock: they are the benchmark's work,
    not the program's.  For the first ``prefix`` requests, which every run
    completes, the canonical reports are kept for the digest, and the peak
    RSS is read when they are done.  Each record carries its wall latency
    and its latency at reference speed, scaled by the probes around it.
    Returns (records, measured seconds, peak RSS in MB).
    """
    out_path = requests.workdir / "report.json"
    records = []
    probes = [speed.probe()]
    rss = None
    paused = 0.0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start - paused < seconds:
        t_pause = time.perf_counter()
        block, command, config, cfg_path = requests.next()
        if out_path.exists():
            out_path.unlink()
        i = len(records)
        if tracer is not None:
            tracer.current_request = i
        paused += time.perf_counter() - t_pause
        argv = [command, "--config", cfg_path, "--out", str(out_path)]
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
            error = None
        except (Exception, SystemExit) as exc:  # a traceback is a failed request
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        t_pause = time.perf_counter()
        text = out_path.read_text() if out_path.exists() else ""
        report = None
        if error is None:
            try:
                report = json.loads(text)
            except json.JSONDecodeError as exc:
                error = f"unparseable report: {exc}"
        if error is None:
            error = oracles.check(command, config, code, report)
        records.append({
            "block": block,
            "command": command,
            "modulus": config.get("modulus"),
            "latency": latency,
            "failure": error,
            "bytes": len(text.encode()),
            "canonical": json.dumps(report, sort_keys=True, separators=(",", ":"))
            if report is not None and i < prefix else None,
        })
        if i + 1 == prefix:
            rss = peak_rss_mb()
        probes.append(speed.probe())
        paused += time.perf_counter() - t_pause
    elapsed = time.perf_counter() - t_start - paused
    # Request i ran between probes i and i + 1; the median of the four
    # probes nearest it ignores one that a preemption slowed down.
    for i, r in enumerate(records):
        r["scaled"] = speed.scale(r["latency"], probes[max(i - 1, 0):i + 3])
    return records, elapsed, rss if rss is not None else peak_rss_mb()


def digest(records, count) -> str:
    h = hashlib.sha256()
    for r in records[:count]:
        h.update((r["canonical"] or "<failed>").encode())
        h.update(b"\n")
    return h.hexdigest()


def block_throughput(records, key="scaled") -> float:
    """Median over the run's complete blocks of verified requests per second
    of request time (``key``: "scaled" or wall "latency").

    Blocks have equal composition, so their rates are comparable, and the
    median is robust to spells of a faster or slower host that scaling
    does not cancel.  Without a complete block, all requests count."""
    blocks = {}
    for r in records:
        blocks.setdefault(r["block"], []).append(r)
    complete = list(blocks.values())[:-1] or [records]
    return statistics.median(
        sum(r["failure"] is None for r in b) / sum(r[key] for r in b)
        for b in complete
    )


def latencies_ms(records, key):
    # A failed request misses every latency limit.
    return sorted(r[key] * 1000.0 if r["failure"] is None else float("inf")
                  for r in records)


def end_to_end(records, rss, setup_samples):
    """The end-to-end metrics; every time is at reference speed."""
    n = len(records)
    verified = sum(1 for r in records if r["failure"] is None)
    lat = latencies_ms(records, "scaled")
    tail_rank = max(n - 1 - TAIL_BEYOND, 0)
    metrics = {
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (lat[tail_rank], "ms"),
        "throughput_rps": (block_throughput(records), "1/s"),
        "verified_share": (verified / n, "share"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
    }
    wall = latencies_ms(records, "latency")
    stamp = {
        "latency_tail": {"percentile": 100.0 * (tail_rank + 1) / n, "samples": n,
                         "beyond": n - 1 - tail_rank},
        "wall_latency_p50_ms": statistics.median(wall),
        "wall_latency_tail_ms": wall[tail_rank],
        "wall_throughput_rps": block_throughput(records, "latency"),
        "wall_setup_s": statistics.median(w for w, _ in setup_samples),
        "setup_samples_s": setup_samples,
    }
    return metrics, stamp


def untraced_throughput(args) -> tuple:
    """(throughput_rps, correct) of the same run without tracing, in a
    fresh interpreter so that no cache is shared with the traced run."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"untraced reference run failed:\n{out.stderr}")
    result = json.loads(lines[-1])
    return result["metrics"]["throughput_rps"]["value"], result["correct"]


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "bmlocal" / "cli.py").is_file():
        fail(f"no bmlocal package under {SRC}; run from the root of a checkout")
    reference = untraced_throughput(args) if args.trace else None

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        requests = Requests(args.workload, args.seed, workdir)
        requests.write_chunk()
        setup_samples = [] if args.trace else measure_setup()
        cli = import_cli()

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            cli = sys.modules["bmlocal.cli"]
        records, elapsed, rss = closed_loop(
            cli, requests, args.seconds, workload["prefix"], tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(records)
    failures = [r for r in records if r["failure"] is not None]
    correct = not failures
    commands = Counter(r["command"] for r in records)
    moduli = Counter(r["modulus"] for r in records if r["modulus"] is not None)
    prefix = min(n, workload["prefix"])
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "why": workload["why"],
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "nproc": nproc,
        "bmlocal_file": cli.__file__,
        "using_numba": bool(getattr(sys.modules.get("bmlocal._kernels"),
                                    "USING_NUMBA", False)),
        "command_share": {k: v / n for k, v in sorted(commands.items())},
        "modulus_histogram": {str(k): v for k, v in sorted(moduli.items())},
        "requests": n,
        "measured_s": elapsed,
        "failed_share": len(failures) / n,
        "digest": digest(records, prefix),
        "prefix_requests": prefix,
        "peak_rss_mb_end": peak_rss_mb(),
    }

    if args.trace:
        layer = tracer.layer_metrics()
        layer["cli.report_bytes"] = sum(r["bytes"] for r in records)
        ref_rps, ref_correct = reference
        correct = correct and ref_correct
        layer["trace_overhead_share"] = 1.0 - block_throughput(records) / ref_rps
        units = tracing.metric_units()
        metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
        stamp["untraced_throughput_rps"] = ref_rps
        stamp["spans"] = len(tracer.start)
        stamp["callables_not_found"] = tracer.missing
    else:
        e2e, extra = end_to_end(records, rss, setup_samples)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        stamp.update(extra)

    RUNS.mkdir(exist_ok=True)
    base = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.save(base.with_suffix(".spans.npz"))
    result = {"correct": correct, "attempted": n, "failed": len(failures),
              "metrics": metrics}
    base.with_suffix(".json").write_text(json.dumps(
        {"stamp": stamp, "failures": [r["failure"] for r in failures[:20]], **result},
        indent=2, sort_keys=True))

    for key, value in stamp.items():
        print(f"# {key}: {json.dumps(value)}")
    for r in failures[:5]:
        print(f"# failure: {r['command']}: {r['failure']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
