"""Regenerate expected.json, the known answer of every benchmark job.

    python3 perfbench/make_expected.py

Runs each job's builtin reference command once and stores its exit code
and normalised checks.  Run it only on a commit whose reports are trusted:
the benchmark counts every later deviation from these records as a failure.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import EXPECTED_PATH, WORKLOADS, normalize

ROOT = Path(__file__).resolve().parent.parent


def main():
    keys = sorted({job.key for w in WORKLOADS.values() for job in w.jobs})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HBL_MAX_AMBIENT", None)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for key in keys:
            argv = [sys.executable, "-m", "heckebialg.cli", *key.split(), "-o", str(report)]
            code = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode
            out[key] = normalize(json.loads(report.read_text()), code)
            print(f"{key}: exit {code}, {len(out[key]['checks'])} checks")
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
