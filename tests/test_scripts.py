"""Smoke test of the experiment scripts: each main() runs serially at a tiny
size and writes its CSVs."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args):
    main = runpy.run_path(str(SCRIPTS / name), run_name="script")["main"]
    monkeypatch.setattr(sys, "argv", [name, "--workers", "1", *args])
    return main()


def test_run_table1(monkeypatch, tmp_path, capsys):
    assert run_script(monkeypatch, "run_table1.py", "--trials", "100", "--out-dir", str(tmp_path)) == 0
    for length in (500, 600):
        lines = (tmp_path / f"table1_{length}b.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[2:]] == ["bbbss", "cascade", "tpm"]
        assert all(line.split(",")[3] == "100" for line in lines[2:])
    assert "error rate 3%" in capsys.readouterr().out


def test_run_sync_figures(monkeypatch, tmp_path):
    args = ("--scenarios", "fig4", "--trials", "1", "--out-dir", str(tmp_path))
    assert run_script(monkeypatch, "run_sync_figures.py", *args) == 0
    # fig4 sweeps K in {6,8,10} and N in 20..25
    assert len((tmp_path / "fig4.csv").read_text().splitlines()) == 2 + 18


def test_run_attack_study(monkeypatch, tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert run_script(monkeypatch, "run_attack_study.py", "--trials", "2", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 2 + 2
    assert "attacker synced within budget" in capsys.readouterr().out

