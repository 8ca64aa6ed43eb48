"""The README's two-burst numbers, from the script that prints them."""
import csv
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_two_burst_script_reproduces_the_readme_numbers(tmp_path, monkeypatch, capsys):
    out = tmp_path / "two_burst.csv"
    monkeypatch.setattr(sys, "argv", ["run_two_burst.py", "--out", str(out)])
    runpy.run_path(str(SCRIPTS / "run_two_burst.py"), run_name="__main__")
    capsys.readouterr()
    with open(out, newline="", encoding="utf-8") as fh:
        rows = {(r["method"], r["target"]): r for r in csv.DictReader(fh)}
    assert len(rows) == 12
    for target in ("0.50", "0.70"):
        for method in ("tcp", "2n2p"):
            assert (rows[method, target]["b_alive"], rows[method, target]["map"]) == (
                "0", "0.000000"
            ), (method, target)
        assert (rows["div-simple", target]["b_alive"], rows["div-simple", target]["map"]) == (
            "1", "0.100000"
        ), target
    for target in ("0.30", "0.50", "0.70"):
        assert (rows["ipu", target]["b_alive"], rows["ipu", target]["map"]) == (
            "10", "1.000000"
        ), target
