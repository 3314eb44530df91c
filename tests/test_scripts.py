"""The scripts under scripts/ run end to end on small inputs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    """The stdout lines of ``scripts/<name> args``; the script must exit 0 within 10 s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=str(ROOT),
                         env=env, capture_output=True, text=True, timeout=10)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()


def test_bidegree_survey():
    assert run_script("bidegree_survey.py", "--degrees", "3", "--per-degree", "1")[0].startswith(
        "degree 3  (")


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_graph_digest():
    import contextlib
    import io

    from mme.cli import main

    digest, exact, *lines = run_script("graph_digest.py", "--limit", "6")
    # the first line is the sha256 of the rest: one line per map, in corpus order
    assert digest == _sha256("\n".join(lines))
    assert len(lines) == 6
    for line in lines:
        code, out, err, spec = line.split(" ", 3)
        assert code in ("0", "1", "2", "3") and len(out) == len(err) == 64
        assert json.loads(spec)["num"]
    assert lines[1].split(" ", 3)[3] == '{"num": [0, -3, 0, 1], "den": [1]}'
    # T_3 = z^3 - 3z reports, and writes nothing to stderr
    assert lines[1].split(" ")[:3:2] == ["0", _sha256("")]
    # the second line hashes the same lines, each exit-0 report without its
    # basepoint and branch points, rerun here in this process
    kept = []
    for line in lines:
        code, out, err, spec = line.split(" ", 3)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert main(["analyze-graph", "--map", spec]) == int(code)
        assert _sha256(stdout.getvalue()) == out
        if code == "0":
            report = json.loads(stdout.getvalue())
            assert "basepoint" in report and "branch_points" in report
            out = _sha256(json.dumps({k: v for k, v in report.items()
                                      if k not in ("basepoint", "branch_points")}))
        kept.append(" ".join((code, out, err, spec)))
    assert exact == _sha256("\n".join(kept)) != digest


def test_exact_probe():
    import contextlib
    import io

    from mme.cli import main

    (line,) = run_script("exact_probe.py", "--limit", "1")
    code, wall, rss, digest, name = line.split(" ")
    assert (code, name) == ("0", "compose-z2000")
    assert float(wall) > 0 and float(rss) > 0
    # the probe's stdout is the report of the same command run in this process
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["compose", "--f", "z^2000+1", "--g", "z+1"]) == 0
    assert digest == hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
