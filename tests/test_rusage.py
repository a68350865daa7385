"""Smoke tests of scripts/rusage.py, the per-command wall time, peak
memory and page-fault measurement."""

import shlex
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rusage.py"


def rusage(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=120)


def test_measures_each_command_in_the_order_given():
    python = shlex.quote(sys.executable)
    commands = [f"{python} -c pass", f"{python} -c 'import json'"]
    result = rusage("-n", "3", *commands)
    assert result.returncode == 0, result.stderr
    header, *lines = result.stdout.splitlines()
    assert header.split() == ["wall_s", "maxrss_mb", "minflt", "runs", "command"]
    assert len(lines) == 2
    for line, command in zip(lines, commands):
        wall, maxrss, minflt, runs, rest = line.split(maxsplit=4)
        assert rest == command and int(runs) == 3
        assert 0 < float(wall) < 60 and 1 < float(maxrss) < 1000 and int(minflt) > 0


def test_failing_command_stops_the_measurement():
    result = rusage("-n", "2", f"{shlex.quote(sys.executable)} -c 'raise SystemExit(3)'")
    assert result.returncode == 1
    assert "exited with 3" in result.stderr
