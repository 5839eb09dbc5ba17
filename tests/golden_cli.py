"""The golden CLI table in `golden_cli.txt`, and its runner for an installed
console script. Standard library only.

A case is a line `$ opcalc <arguments>`, the arguments written as shell
words, then the lines it must print on stdout, exactly, then the line
`[exit <code>]`. Lines starting with `#` between cases are comments.
`test_cli.py` runs every case in process through `opcalc.cli.main`. Run as
a script, this module runs every case against the `opcalc` on PATH, each in
a fresh process, and exits 1 when one differs:

    python tests/golden_cli.py
"""

import shlex
import subprocess
import sys
from pathlib import Path

TABLE = Path(__file__).with_name("golden_cli.txt")


def read_cases(path: Path = TABLE) -> list[tuple[list[str], str, int]]:
    """(arguments after `opcalc`, stdout, exit code) for every case."""
    cases = []
    case = None
    for line in path.read_text().splitlines():
        if case is None:
            if line.startswith("$ opcalc "):
                case = (shlex.split(line[len("$ opcalc "):]), [])
            elif line and not line.startswith("#"):
                raise ValueError(f"{path.name}: expected a case or a comment, got {line!r}")
        elif line.startswith("[exit ") and line.endswith("]"):
            argv, out = case
            cases.append((argv, "".join(f"{text}\n" for text in out), int(line[6:-1])))
            case = None
        else:
            case[1].append(line)
    if case is not None:
        raise ValueError(f"{path.name}: the last case has no exit line")
    return cases


def main() -> int:
    cases = read_cases()
    failed = 0
    for argv, stdout, code in cases:
        run = subprocess.run(["opcalc", *argv], capture_output=True, text=True)
        if (run.stdout, run.returncode) != (stdout, code):
            failed += 1
            print(f"FAIL opcalc {shlex.join(argv)}\nexit {run.returncode}, expected {code}\n"
                  f"stdout:\n{run.stdout}expected:\n{stdout}stderr:\n{run.stderr}")
    print(f"{len(cases) - failed} of {len(cases)} golden cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
