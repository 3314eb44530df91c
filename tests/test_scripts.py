"""The scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """First stdout line of ``scripts/<name> args``; the script must exit 0 within 10 s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=str(ROOT),
                         env=env, capture_output=True, text=True, timeout=10)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[0]


def test_bidegree_survey():
    assert run_script("bidegree_survey.py", "--degrees", "3", "--per-degree", "1").startswith(
        "degree 3  (")


def test_render_flower(tmp_path):
    out = tmp_path / "flower.ppm"
    line = run_script("render_flower.py", "--size", "20", "--count", "500", "--out", str(out))
    assert line.startswith("wrote %s (20x20), lit fraction " % out)
    assert out.read_bytes().startswith(b"P6\n20 20\n255\n")
