"""The five demos print the same output as when tests/data/demo_golden.json
was recorded: each stdout's sha256 is compared with the recorded one.  The
demos run at once, each in its own interpreter."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO_GOLDEN_PATH = ROOT / "tests" / "data" / "demo_golden.json"


def test_demos_print_golden_output():
    golden = json.loads(DEMO_GOLDEN_PATH.read_text())
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert [d.name for d in demos] == sorted(golden)
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    procs = {
        d.name: subprocess.Popen(
            [sys.executable, str(d)], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for d in demos
    }
    for name, proc in procs.items():
        out, err = proc.communicate()
        assert proc.returncode == 0, (name, err.decode())
        assert hashlib.sha256(out).hexdigest() == golden[name], name
