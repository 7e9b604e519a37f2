"""List every executable ``src/warnlab`` line that the tier-1 tests never run.

Usage: ``python tests/coverage_map.py [--summary FILE]``

Runs the tier-1 command (ROADMAP.md) in a child interpreter with
``tests/coverage_site`` first on ``PYTHONPATH``. Its ``sitecustomize``
traces the lines of ``src/warnlab`` in pytest's process and in every CLI
subprocess a test spawns, since each child inherits that ``PYTHONPATH``.
The run also passes ``-p no:cacheprovider`` (no cache is written) and a
fixed ``--hypothesis-seed``, so one tree always gives one map.

A line is executable when the compiled module holds an instruction for it
(``co_lines`` of each code object); docstrings and comments are not. The
script prints each module's share of executable lines run and every line
never run, then exits:

- with pytest's status when a test fails;
- 1 when a never-run line is not in ``ALLOWED``, or an ``ALLOWED`` entry
  names no never-run line (the allowlist holds no stale entry);
- 0 otherwise.

``--summary FILE`` appends the per-module table to FILE as Markdown.
Stdlib only; the name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "warnlab"
SITE = Path(__file__).resolve().parent / "coverage_site"

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--hypothesis-seed=0"]

# Never-run lines that may stay, by module and stripped text, each with its
# reason. An entry allows one line: a second never-run line of that text fails.
ALLOWED: dict[tuple[str, str], str] = {
    ("cli.py", "from .schema import LeakMode"):
        "under TYPE_CHECKING, for type checkers only: importing it at run time would "
        "load the feature schema into the ledger commands",
    ("dataset.py", "from .history import ProjectHistory"):
        "under TYPE_CHECKING, for type checkers only: importing it at run time would "
        "load the ledger layer into fit and eval",
}


def executable_lines(path: Path) -> set[int]:
    """The lines of a module that hold at least one instruction."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """The tier-1 run's exit status, and the lines run per source file."""
    with tempfile.TemporaryDirectory(prefix="coverage-map-") as out:
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [
                   str(SITE), str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
               "COVERAGE_MAP_DIR": out, "COVERAGE_MAP_SRC": str(SRC) + os.sep}
        status = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env).returncode
        run: dict[str, set[int]] = {}
        for dump in Path(out).glob("*.json"):
            for path, lines in json.loads(dump.read_text(encoding="utf-8")).items():
                run.setdefault(os.path.realpath(path), set()).update(lines)
    return status, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", help="append the per-module table to this file")
    args = parser.parse_args(argv)

    status, run = run_traced()
    table = ["| module | executable lines | run | share |", "|---|---:|---:|---:|"]
    unexpected, allowed_seen = [], set()
    print(f"\n{'module':<16} {'lines':>6} {'run':>6} {'share':>7}")
    for path in sorted(SRC.glob("*.py")):
        executable = executable_lines(path)
        missed = sorted(executable - run.get(os.path.realpath(path), set()))
        share = 1 - len(missed) / len(executable)
        print(f"{path.name:<16} {len(executable):>6} {len(executable) - len(missed):>6} "
              f"{share:>7.1%}")
        table.append(f"| `{path.name}` | {len(executable)} | {len(executable) - len(missed)} "
                     f"| {share:.1%} |")
        source = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            entry = (path.name, source[line - 1].strip())
            where = f"src/warnlab/{path.name}:{line}: {entry[1]}"
            if entry in ALLOWED and entry not in allowed_seen:  # one line per entry
                allowed_seen.add(entry)
                print(f"  allowed  {where}\n           ({ALLOWED[entry]})")
            else:
                unexpected.append(where)
                print(f"  NEVER RUN {where}")
    stale = sorted(set(ALLOWED) - allowed_seen)
    for name, text in stale:
        print(f"  stale allowlist entry: {name}: {text}")
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as fp:
            fp.write("\n".join(["### Lines of src/warnlab run by tier-1", "", *table, ""]) + "\n")
    if status:
        print(f"tier-1 failed (exit {status})")
        return status
    print(f"{len(unexpected)} never-run line(s) outside the allowlist, "
          f"{len(stale)} stale allowlist entr{'y' if len(stale) == 1 else 'ies'}")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
