#!/usr/bin/env python3
"""Self-check of the benchmark on a tiny synthetic history.

Run it from the repository root:

    python3 bench/selfcheck.py

It checks that one run prints every metric BENCHMARK.json declares, with
its unit, for ``--trace 0`` and ``--trace 1``; that expected hashes are
compared; that one wrong expected hash is reported as a failed operation
naming the artifact, while everything else passes; and that the traced
in-process passes reproduce the artifacts of the CLI run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

NAME = "selfcheck-tiny"
TINY = run.Workload(n_files=10, n_revisions=20, warnings_per_revision=5)
TAMPERED = "audit/audit.json"


def run_tiny(trace: int, expected: dict[str, str]) -> tuple[dict, dict]:
    out = io.StringIO()
    argv = ["--workload", NAME, "--seed", str(run.DEFAULT_SEED), "--seconds", "1",
            "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, workloads={NAME: TINY}, fingerprints={NAME: expected})
    lines = out.getvalue().splitlines()
    if code != 0 or len(lines) < 2:
        raise SystemExit(f"benchmark exited {code} with output {lines!r}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def metric_problems(result: dict, declared: list[dict]) -> list[str]:
    metrics = result["metrics"]
    problems = [f"undeclared metric {name}"
                for name in sorted(set(metrics) - {m["name"] for m in declared})]
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"missing metric {spec['name']}")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{spec['name']} in {got['unit']}, declared {spec['unit']}")
        elif isinstance(got["value"], bool) or not isinstance(got["value"], (int, float)):
            problems.append(f"{spec['name']} is not a number")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    # No expected hashes: every artifact must be reported as a mismatch.
    info, result = run_tiny(0, {})
    problems += metric_problems(result, spec["end_to_end"])
    hashes = info["artifacts"]
    unflagged = [rel for rel in hashes
                 if not any(p.endswith(f"fingerprint mismatch: {rel}") for p in info["problems"])]
    if unflagged or result["correct"]:
        problems.append(f"artifacts not compared with expected hashes: {unflagged}")

    # Right hashes but one: exactly that artifact fails, once per repetition.
    info, result = run_tiny(0, dict(hashes, **{TAMPERED: "0" * 64}))
    if info["problems"] != [f"audit: fingerprint mismatch: {TAMPERED}"]:
        problems.append(f"tampered hash reported as {info['problems']}")
    if result["correct"] or result["failed"] != info["repetitions"]:
        problems.append(f"tampered hash counted as {result['failed']} failed operation(s)")

    # Right hashes: the in-process passes reproduce the CLI's artifacts.
    info, result = run_tiny(1, hashes)
    problems += metric_problems(result, spec["per_layer"])
    if not result["correct"]:
        problems.append(f"traced run failed: {info['problems']}")

    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print("selfcheck ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
