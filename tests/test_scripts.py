import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_theta_sweep_smoke(tmp_path, capsys):
    theta_sweep = load_script("theta_sweep")
    out = tmp_path / "records.csv"
    assert theta_sweep.main(["--resolution", "8", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert {float(r["theta"]) for r in rows} == set(theta_sweep.THETAS)
    assert "pooled fit:" in capsys.readouterr().out
