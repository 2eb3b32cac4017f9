import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_paper_tables_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "paper_tables.py"), "--ors-kmax", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "#X(sigma^3) = q^2 - q" in lines
    for m, n in ((2, 3), (2, 5), (3, 4)):
        assert f"ors({m},{n}) kmax=4: match" in lines
        assert f"euler({m},{n}) kmax=4: match" in lines
