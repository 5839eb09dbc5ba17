"""`tools/behaviour_digest.py` reproduces `tests/behaviour_digest.json`.

The file holds one sha256 per surface: every `check` suite's text and
JSON, the evaluator commands on seeded B points, the `psi_double_prime`
guard and seeded malformed inputs (see the tool's docstring). A change
that alters any of those bytes fails here, unless it means to: then it
re-records the file and says why in CHANGES.md. The tool runs in fresh
interpreters under two `PYTHONHASHSEED` values, so no digest rests on set
or dict order.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDED = json.loads((ROOT / "tests" / "behaviour_digest.json").read_text())


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_behaviour_digest_matches_the_recorded_file(hash_seed):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "behaviour_digest.py"),
         "--seed", str(RECORDED["seed"]), "--n", str(RECORDED["n"])],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == RECORDED
