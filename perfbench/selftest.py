"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It checks that:

* a one-second run of every workload, untraced and traced, is correct and
  prints exactly the metrics ``BENCHMARK.json`` names;
* the oracles count deliberately corrupted reports as failed: one
  multiplicity raised by one, one g0 coefficient changed;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, a
  run exits nonzero without printing a result.

Exits nonzero if any check fails.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
PROBLEMS = []


def expect(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        PROBLEMS.append(message)


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd, check=False,
    )


def check_tiny_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json lists every workload")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            out = run(workload, trace)
            label = f"{workload} --trace {trace}"
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                expect(False, f"{label} exits 0 with a result: {out.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label} result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label} is correct")
            expect(sorted(result["metrics"]) == sorted(names[trace]),
                   f"{label} prints exactly the named metrics")
            expect(any(line.startswith("# digest: ") for line in lines),
                   f"{label} prints the report digest")


def _report(cli, command, config):
    """The report ``bmlocal <command>`` writes for ``config``."""
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    cfg, out = work / "selftest-config.json", work / "selftest-report.json"
    cfg.write_text(json.dumps(config))
    try:
        cli.main([command, "--config", str(cfg), "--out", str(out)])
        return json.loads(out.read_text())
    finally:
        cfg.unlink()
        out.unlink(missing_ok=True)


def check_corruption():
    sys.path.insert(0, str(ROOT / "src"))
    import bmlocal.cli as cli

    rng = random.Random(1)
    cases = []
    dec = {"weights": [[2, 1, 0], [2, 1, 0], [1, 0, 0]]}
    rep = _report(cli, "decompose", dec)
    bad = copy.deepcopy(rep)
    key = sorted(bad["multiplicities"])[0]
    bad["multiplicities"][key] += 1
    cases.append(("decompose", dec, rep, bad, "one multiplicity + 1"))

    bm = {"field": {"p": 5, "e": 2, "f": 1}, "mu": [[2, 0], [2, 0]]}
    rep = _report(cli, "bm-identity", bm)
    bad = copy.deepcopy(rep)
    bad["terms"][0]["multiplicity"] += 1
    cases.append(("bm-identity", bm, rep, bad, "one multiplicity + 1"))

    for M, d, p, e in ((64, 2, 3, 2), (256, 2, 2, 1), (128, 1, 5, 2)):
        tor = workloads.torsor_config(rng, M, d, p, e)
        rep = _report(cli, "bk-torsor", tor)
        N = tor["N"]
        for index in (0, N, N + 3):
            bad = copy.deepcopy(rep)
            entry = bad["g0"][d - 1][0]
            entry[index] = (entry[index] + 1) % p
            cases.append(("bk-torsor", tor, rep, bad, f"M={M} d={d} p={p}: "
                          f"g0 coefficient {index} changed"))

    for command, config, good, bad, what in cases:
        expect(oracles.check(command, config, 0, good) is None,
               f"{command} oracle accepts the true report")
        expect(oracles.check(command, config, 0, bad) is not None,
               f"{command} oracle rejects {what}")


def check_bare_directory():
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run("verify-sweep", 0, cwd=bare)
        expect(out.returncode != 0 and not out.stdout.strip(),
               "without src/ a run exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_corruption()
    check_bare_directory()
    check_tiny_runs()
    print(f"{len(PROBLEMS)} problem(s)")
    sys.exit(1 if PROBLEMS else 0)
