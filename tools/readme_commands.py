"""Run the README's command-line block and check what each command prints.

Every command of the README's "Command line" section runs as written, with
its bracketed options left out, and so do ``enumerate --format json`` and
``simulate --format csv``.  A command passes when it exits 0 and prints
strict JSON naming its subcommand, or the documented text: enumerate's
``shape probability leaves`` rows, selftest's PASS lines, or the CSV
header.  Prints one line per command and exits 1 if any fails.

Run from the repository root, naming how to start the program::

    python tools/readme_commands.py triefringe
    python tools/readme_commands.py python -m triefringe.cli
"""

import json
import pathlib
import re
import shlex
import subprocess
import sys

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
CSV_HEADER = "name,mean,var,se_mean,se_var,skew,exkurt"


def readme_commands():
    """The argv (without the program name) of each command in the README block."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        line = re.sub(r"\[[^]]*\]", "", line.split("#", 1)[0])
        if line.strip():
            commands.append(shlex.split(line)[1:])
    return commands


def _reject(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def check(argv, out):
    """None when ``out`` is what ``argv`` documents, else what is wrong."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
    lines = out.splitlines()
    if argv[0] == "selftest":
        bad = [line for line in lines if not line.startswith("PASS")]
        return f"not PASS: {bad}" if bad or not lines else None
    if argv[0] == "enumerate" and fmt != "json":
        bad = [line for line in lines if len(line.split()) != 3 or not re.fullmatch(r"[-+.\deE]+", line.split()[1])]
        return f"not a shape row: {bad}" if bad or not lines else None
    if fmt == "csv":
        return None if lines and lines[0] == CSV_HEADER and len(lines) > 1 else f"CSV header {lines[:1]}"
    try:
        command = json.loads(out, parse_constant=_reject)["command"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"not the JSON envelope: {exc}"
    return None if command == argv[0] else f"envelope names {command!r}"


def main(program):
    commands = readme_commands()
    for argv in list(commands):
        if argv[0] in ("enumerate", "simulate"):
            commands.append(argv + ["--format", "json" if argv[0] == "enumerate" else "csv"])
    failures = 0
    for argv in commands:
        done = subprocess.run(program + argv, capture_output=True, text=True)
        problem = f"exit {done.returncode}: {done.stderr.strip()}" if done.returncode else check(argv, done.stdout)
        failures += problem is not None
        print(f"{'FAIL' if problem else 'ok  '}  {shlex.join(argv)}")
        if problem:
            print(f"      {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
