"""CLI behaviour: determinism, exit codes, config validation."""

import dataclasses
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bmlocal import cli
from bmlocal.cli import main

BM_CONFIG = {"field": {"p": 5, "e": 2, "f": 1}, "mu": [[2, 0], [2, 0]]}


def run_cli(tmp_path, command, config, extra=None):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if extra:
        argv += extra
    code = main(argv)
    return code, out.read_text()


def test_bm_identity_report(tmp_path):
    code, text = run_cli(tmp_path, "bm-identity", BM_CONFIG)
    assert code == 0
    report = json.loads(text)
    assert report["pass"]
    lams = {t["lambda"] for t in report["terms"]}
    assert lams == {"2,0", "1,1"}
    lifts = {t["lambda"]: t["lift"] for t in report["terms"]}
    assert sorted(lifts["2,0"].values()) == [[1, 0], [3, 0]]
    assert sorted(lifts["1,1"].values()) == [[1, 0], [2, 1]]


def test_reports_are_deterministic(tmp_path):
    _, first = run_cli(tmp_path, "bm-identity", BM_CONFIG)
    _, second = run_cli(tmp_path, "bm-identity", BM_CONFIG)
    assert first == second
    cfg = {"suite": "duality", "seed": 7}
    _, a = run_cli(tmp_path, "suite", cfg)
    _, b = run_cli(tmp_path, "suite", cfg)
    assert a == b


def test_unknown_config_key_rejected(tmp_path):
    bad = dict(BM_CONFIG, typo_key=1)
    with pytest.raises(ValueError):
        run_cli(tmp_path, "bm-identity", bad)


def test_failing_check_exits_nonzero(tmp_path):
    # outside the Theorem-A bound: a named error and exit code 1
    cfg = {"field": {"p": 5, "e": 2, "f": 1}, "mu": [[6, 0], [2, 0]]}
    code, text = run_cli(tmp_path, "bm-identity", cfg)
    assert code == 1
    report = json.loads(text)
    assert report["error"] == "BoundViolated"
    assert not report["pass"]


def test_composite_field_refused(tmp_path):
    cfg = {"field": {"p": 6, "e": 1}, "C": [[[1]]], "g": [[[1]]], "N": 1,
           "modulus": 8}
    code, text = run_cli(tmp_path, "bk-torsor", cfg)
    assert code == 1
    report = json.loads(text)
    assert report["error"] == "NotPrime" and not report["pass"]


def test_decompose_command(tmp_path):
    cfg = {"weights": [[1, 0], [1, 0]]}
    code, text = run_cli(tmp_path, "decompose", cfg)
    assert code == 0
    report = json.loads(text)
    assert report["multiplicities"] == {"2,0": 1, "1,1": 1}


def test_nabla_cell_command(tmp_path):
    cfg = {"lambda": [3, 0], "e": 2, "p": 5}
    code, text = run_cli(tmp_path, "nabla-cell", cfg)
    assert code == 0
    report = json.loads(text)
    assert report["dimension"] == 2 == report["bruteforce"]
    assert report["free_exponents"] == [0, 2]


def test_interpolate_command(tmp_path):
    cfg = {
        "field": {"p": 5, "e": 2},
        "m": [1, 2, 3, 1, 2],
        "r": [2, 2],
        "precision": 40,
    }
    code, text = run_cli(tmp_path, "interpolate", cfg)
    assert code == 0
    report = json.loads(text)
    assert report["congruence"] and report["divisibility"]
    assert report["integrality"] and report["ledger_respected"]


def test_validate_bounds_command(tmp_path):
    code, text = run_cli(tmp_path, "validate-bounds", BM_CONFIG)
    assert code == 0
    report = json.loads(text)
    assert report["natural"]["pass"] and report["theoremA"]["pass"]


def test_suites_all_pass(tmp_path):
    for name in ("characters", "nabla", "duality"):
        code, _ = run_cli(tmp_path, "suite", {"suite": name, "seed": 0})
        assert code == 0, name


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"weights": [[1, 0], [1, 0]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "bmlocal.cli", "decompose", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"]


def test_hilbert_defect_mixed_ranks_refused(tmp_path):
    cfg = {"mu_list": [[3, 1], [2, 0, 0]]}
    code, text = run_cli(tmp_path, "hilbert-defect", cfg)
    assert code == 1
    report = json.loads(text)
    assert report["error"] == "RankMismatch" and not report["pass"]


@pytest.mark.parametrize(
    "command, config",
    [("decompose", {"weights": []}), ("hilbert-defect", {"mu_list": []})],
)
def test_empty_weight_list_rejected(tmp_path, command, config):
    code, text = run_cli(tmp_path, command, config)
    assert code == 1
    report = json.loads(text)
    assert report["error"] == "InvalidWeight" and not report["pass"]
    assert "at least one weight" in report["message"]


@pytest.mark.parametrize(
    "command, config",
    [("decompose", {"weights": [[0, 1]]}),
     ("hilbert-defect", {"mu_list": [[0, 1], [2, 0]]}),
     ("bm-identity", dict(BM_CONFIG, mu=[[0, 2], [2, 0]]))],
)
def test_non_dominant_weight_rejected(tmp_path, command, config):
    code, text = run_cli(tmp_path, command, config)
    assert code == 1
    report = json.loads(text)
    assert report["error"] == "InvalidWeight" and not report["pass"]
    assert "not dominant" in report["message"]


def test_bm_identity_verdict_is_checked(tmp_path, monkeypatch):
    real = cli.bm_identity

    def off_by_one(mu):
        ident = real(mu)
        (st, m, lift), *rest = ident.terms
        return dataclasses.replace(ident, terms=((st, m + 1, lift), *rest))

    monkeypatch.setattr(cli, "bm_identity", off_by_one)
    code, text = run_cli(tmp_path, "bm-identity", BM_CONFIG)
    assert code == 1
    assert json.loads(text)["pass"] is False


def test_override_bounds_only_for_interpolate(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "bm-identity", BM_CONFIG, ["--override-bounds"])
    assert exc.value.code == 2
    assert "--override-bounds" in capsys.readouterr().err


@pytest.mark.parametrize("p", [4, 6])
def test_nabla_cell_composite_p_refused(tmp_path, p):
    cfg = {"lambda": [3, 0], "e": 1, "p": p}
    code, text = run_cli(tmp_path, "nabla-cell", cfg)
    assert code == 1
    report = json.loads(text)
    assert report["error"] == "NotPrime" and not report["pass"]


@pytest.mark.parametrize("command", ["bm-identity", "validate-bounds"])
def test_wrong_weight_count_refused(tmp_path, command):
    cfg = {"field": {"p": 5, "e": 2, "f": 1}, "mu": [[2, 0]]}
    code, text = run_cli(tmp_path, command, cfg)
    assert code == 1
    report = json.loads(text)
    assert report["error"] == "InvalidWeight" and not report["pass"]
    assert "one weight per embedding" in report["message"]


@pytest.mark.parametrize(
    "command, config",
    [("hilbert-defect", {"mu_list": [[2, 0]], "n_max": -1}),
     ("hilbert-defect", {"mu_list": [[2, 0]], "n_max": 0}),
     ("nabla-cell", {"lambda": [3, 0], "e": 0, "p": 5}),
     ("nabla-cell", {"lambda": [3, 0], "e": -1, "p": 5}),
     ("bk-torsor", {"field": {"p": 5, "e": 0}, "C": [[[1]]], "g": [[[1]]],
                    "N": 1, "modulus": 8})],
)
def test_vacuous_check_refused(tmp_path, command, config):
    code, text = run_cli(tmp_path, command, config)
    assert code == 1
    report = json.loads(text)
    assert report["error"] == "BoundViolated" and not report["pass"]


@pytest.mark.parametrize(
    "command, config",
    [("decompose", {"weights": [[1.5, 0], [1, 0]]}),
     ("hilbert-defect", {"mu_list": [[2, 0], [2.0, 0]]}),
     ("bm-identity", dict(BM_CONFIG, mu=[[2, 0], [2.5, 0]])),
     ("nabla-cell", {"lambda": [3.9, 0], "e": 2, "p": 5})],
)
def test_non_integer_weight_entry_rejected(tmp_path, command, config):
    code, text = run_cli(tmp_path, command, config)
    assert code == 1
    report = json.loads(text)
    assert report["error"] == "InvalidWeight" and not report["pass"]
    assert "not a list of integers" in report["message"]


@pytest.mark.parametrize(
    "command, config",
    [("decompose", {"weights": [[True, False], [1, 0]]}),
     ("hilbert-defect", {"mu_list": [[2, 0], [True, False]]}),
     ("nabla-cell", {"lambda": [True, False], "e": 2, "p": 5})],
)
def test_boolean_weight_entry_rejected(tmp_path, command, config):
    code, text = run_cli(tmp_path, command, config)
    assert code == 1
    report = json.loads(text)
    assert report["error"] == "InvalidWeight" and not report["pass"]
    assert "not a list of integers" in report["message"]


@pytest.mark.parametrize(
    "command, config",
    [("bm-identity", {"field": {"p": 5, "e": 0, "f": 1}, "mu": []}),
     ("bm-identity", {"field": {"p": 5, "e": 2, "f": 0}, "mu": []}),
     ("interpolate", {"field": {"p": 2, "e": 7}, "m": [1, 2], "r": [1]}),
     ("interpolate", {"field": {"p": 5, "e": 0}, "m": [1, 2], "r": [1]})],
)
def test_unsupported_field_refused(tmp_path, command, config):
    code, text = run_cli(tmp_path, command, config)
    assert code == 1
    report = json.loads(text)
    assert report["error"] == "BoundViolated" and not report["pass"]


README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLE = re.compile(r"^echo '(?P<config>.*)' \| bmlocal (?P<argv>.*)$")


def test_readme_examples_pass(monkeypatch, capsys):
    examples = [m for line in README.read_text().splitlines()
                if (m := EXAMPLE.match(line))]
    assert len(examples) == 7
    for m in examples:
        monkeypatch.setattr(sys, "stdin", io.StringIO(m["config"]))
        code = main(shlex.split(m["argv"]))
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["pass"] is True, m.group(0)
