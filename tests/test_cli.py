import importlib
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import adkra
from adkra.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from adkra.harness import ExperimentConfig, emit_report, run_experiment
from adkra.pddl import parse_domain
from test_golden_outputs import CASES

DATA = pathlib.Path(__file__).parent / "data"
DOMAIN = str(DATA / "nao.pddl")
FAULTY = str(DATA / "grip_faulty.pddl")
REFINED = str(DATA / "grip_refined.pddl")


def test_parse_prints_canonical_form(capsys):
    assert main(["parse", DOMAIN]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("(define (domain nao)")
    reparsed = parse_domain(out)
    assert reparsed == parse_domain((DATA / "nao.pddl").read_text())


def test_parse_with_problem(capsys):
    assert main(["parse", DOMAIN, FAULTY]) == EXIT_OK
    out = capsys.readouterr().out
    assert "(define (problem grip-faulty)" in out
    assert "(:metric" not in out


def test_parse_missing_file_is_input_error(capsys):
    assert main(["parse", "no/such/file.pddl"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_parse_non_utf8_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.pddl"
    bad.write_bytes(b"\xff\xfe(define")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "episodes.csv").write_bytes(b"\xff\xfe")
    for argv, path in [
        (["parse", str(bad)], bad),
        (["parse", DOMAIN, str(bad)], bad),
        (["plan", "--domain", DOMAIN, "--problem", str(bad)], bad),
        (["metrics", "--in", str(run_dir)], run_dir / "episodes.csv"),
    ]:
        assert main(argv) == EXIT_INPUT, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff"), argv


def test_parse_invalid_pddl_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.pddl"
    bad.write_text("(define (domain x) (:types car - vehicle))")
    assert main(["parse", str(bad)]) == EXIT_INPUT
    assert "type hierarchy" in capsys.readouterr().err


def test_mistyped_action_variable_is_input_error(tmp_path, capsys):
    # (atrobby ?from ?r) could never match an :init fact, so goto would never apply.
    bad = tmp_path / "bad.pddl"
    bad.write_text(pathlib.Path(DOMAIN).read_text().replace("(and (atrobby ?r ?from))", "(and (atrobby ?from ?r))"))
    assert main(["parse", str(bad)]) == EXIT_INPUT
    assert "variable ?from has type waypoint, atrobby wants robot in goto" in capsys.readouterr().err


def test_plan_prints_timed_steps(capsys):
    assert main(["plan", "--domain", DOMAIN, "--problem", FAULTY]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "; Cost : 2"
    assert "0.000: (goto nao wp0 wp2) [0.001]" in out


def test_plan_depth_exhausted_is_input_error(capsys):
    code = main(["plan", "--domain", DOMAIN, "--problem", FAULTY, "--max-depth", "1"])
    assert code == EXIT_INPUT
    assert "no plan within depth 1" in capsys.readouterr().err


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["teleport"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_bad_kind_is_usage_error(capsys):
    assert main(["run", "--kind", "sideways", "--out", "x"]) == EXIT_USAGE


def test_malformed_fault_is_usage_error(capsys):
    code = main(["run", "--kind", "distance", "--fault", "maxdis", "--out", "x"])
    assert code == EXIT_USAGE


def test_unknown_fault_fluent_is_input_error(tmp_path, capsys):
    code = main(
        ["run", "--kind", "distance", "--fault", "warpdrive=9", "--out", str(tmp_path)]
    )
    assert code == EXIT_INPUT
    assert "unknown fluent" in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("adkra ")


def test_run_then_metrics_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(
        ["run", "--kind", "distance", "--episodes", "20", "--seed", "7", "--out", str(out_dir)]
    )
    assert code == EXIT_OK
    run_out = capsys.readouterr().out
    assert "final bounds:" in run_out
    assert (out_dir / "episodes.csv").exists()

    header = "Obs. TP FN Preci. Accu. FNR TPR"
    run_row = run_out.splitlines()[run_out.splitlines().index(header) + 1]
    file_lines = (out_dir / "metrics.txt").read_text().splitlines()
    assert file_lines[file_lines.index(header) + 1] == run_row

    assert main(["metrics", "--in", str(out_dir)]) == EXIT_OK
    metrics_out = capsys.readouterr().out
    lines = metrics_out.splitlines()
    assert lines[lines.index(header) + 1] == run_row


def test_fault_alias_reaches_the_kb(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(
        [
            "run",
            "--kind",
            "distance",
            "--episodes",
            "3",
            "--preseed-td",
            "10",
            "--fault",
            "maxdis=26",
            "--out",
            str(out_dir),
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    kb_rows = (out_dir / "kb_final.csv").read_text()
    assert "maxdis(grp),,26,confirmed,0" in kb_rows


def test_metrics_on_missing_directory_is_input_error(tmp_path, capsys):
    assert main(["metrics", "--in", str(tmp_path / "nope")]) == EXIT_INPUT


@pytest.mark.parametrize("row", ["1,phase1,failure", "1,phase1,failure,distance,,,,,,abc,extra"], ids=["short", "long"])
def test_metrics_on_a_row_of_the_wrong_length_is_input_error(tmp_path, capsys, row):
    header = "episode,phase,outcome,true_cause,anomalies,outlier_attr,nn,lv,refinement_outcome,kb_snapshot_hash"
    (tmp_path / "episodes.csv").write_text(f"{header}\n1,phase1,success,,,,,,,abc\n{row}\n")
    assert main(["metrics", "--in", str(tmp_path)]) == EXIT_INPUT
    assert f"{tmp_path / 'episodes.csv'}: line 3 does not have 10 fields" in capsys.readouterr().err


def test_console_script_entry_point(capsys, monkeypatch):
    if shutil.which("adkra") is not None:
        proc = subprocess.run(
            ["adkra", "parse", DOMAIN], capture_output=True, text=True, check=False
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("(define (domain nao)")
        return
    # Not installed: call the target pyproject.toml declares, as the script would.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["adkra"]
    module, func = target.split(":")
    monkeypatch.setattr(sys, "argv", ["adkra", "parse", DOMAIN])
    with pytest.raises(SystemExit) as exit_:
        getattr(importlib.import_module(module), func)()
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("(define (domain nao)")


def test_python_dash_m_runs_the_cli():
    # Put the imported package's parent first, so this also runs from a source
    # checkout with nothing installed.
    root = str(pathlib.Path(adkra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "adkra", "--help"], capture_output=True, text=True, env=env, check=False
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: adkra")


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--fault", "maxdis=nan"], "maxdis"),
        (["--fault", "maxdis=inf"], "maxdis"),
        (["--fault", "mindis=30"], "mindis"),
        (["--fault", "maxdis=10"], "maxdis"),
        (["--fault", "minhwangle=5"], "minhwangle"),
        (["--eta-distance", "nan"], "eta_distance"),
        (["--eta-distance", "inf"], "eta_distance"),
        (["--eta-angle", "0"], "eta_angle"),
        (["--noise-sigma-distance", "-1"], "sigma_distance"),
        (["--noise-sigma-angle", "nan"], "sigma_angle"),
        (["--preseed-td", "-5"], "preseed_td"),
        (["--warmup-successes", "-3"], "warmup_successes"),
        (["--seed", "-1"], "seed"),
        (["--eta-distance", "0.5"], "eta_distance"),
        (["--eta-angle", "2.5"], "eta_angle"),
    ],
)
def test_bad_experiment_configuration_is_input_error(flags, field, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["run", "--kind", "group", "--episodes", "5", *flags, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT, err
    assert err.startswith("error:") and field in err
    assert not out_dir.exists()


@pytest.mark.parametrize("case", CASES)
def test_metrics_prints_the_rate_block_of_metrics_txt(case, tmp_path, capsys):
    emit_report(run_experiment(ExperimentConfig(**CASES[case])), str(tmp_path))
    assert main(["metrics", "--in", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "metrics.txt").read_text().splitlines()
    first = lines.index("Obs. TP FN Preci. Accu. FNR TPR")
    last = max(i for i, line in enumerate(lines) if line.startswith("Accuracy "))
    assert capsys.readouterr().out.splitlines() == lines[first : last + 1]
