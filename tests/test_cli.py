import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import adkra
from adkra.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from adkra.pddl import parse_domain

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


def test_parse_invalid_pddl_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.pddl"
    bad.write_text("(define (domain x) (:types car - vehicle))")
    assert main(["parse", str(bad)]) == EXIT_INPUT
    assert "type hierarchy" in capsys.readouterr().err


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


@pytest.mark.skipif(shutil.which("adkra") is None, reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["adkra", "parse", DOMAIN], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("(define (domain nao)")


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
    ],
)
def test_bad_experiment_configuration_is_input_error(flags, field, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = main(["run", "--kind", "group", "--episodes", "5", *flags, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT, err
    assert err.startswith("error:") and field in err
    assert not out_dir.exists()
