"""A catalogue of hand-made mutants of ``src/``, each with the tests that
kill it: a check on the checks.

Each entry names a file under ``src/``, a source snippet that occurs in it
exactly once, the snippet's replacement, and the tests that must fail once
the replacement is made.  ``tests/test_mutants.py`` checks in tier-1 that
every snippet still occurs exactly once, so the catalogue cannot rot
silently.  Running this file applies each mutant in turn to a copy of
``src/`` under a temporary directory, runs its killing tests against the
copy with pytest, and lists the mutants that some killing test survives:

    python tests/mutants.py [NAME ...]

It exits 1 when any mutant survives.  Its name does not start with
``test_``, so pytest does not collect it.  A change that records a new
mutant adds it here; one that deletes the mutated code deletes its entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    snippet: str
    replacement: str
    killed_by: tuple[str, ...]  # pytest node ids, relative to the repository root


_MAXDEF = "sigdef/maxdef.py"
_RUNS = "tests/test_maxdef.py::TestMaxDefRuns::"
_GOLDEN = "tests/test_golden_trace.py::test_golden_trace_digest"
_MALFORMED = (
    "tests/test_properties.py::test_parse_sg_names_the_malformed_line",
    "tests/test_sgio.py::TestParse::test_malformed_line_reports_number",
)
_LOOPED_BOTH = (
    "tests/test_maxdef.py::TestSteps5And6::"
    "test_contraction_that_loops_both_sides_ends_at_step5"
)


def _append(step: int, pushed: str, killed_by: tuple[str, ...]) -> Mutant:
    """A rule queue pushed by ``append`` in place of ``heappush``."""
    suffix = "-partner" if pushed.endswith("^ 1") else ""
    return Mutant(
        f"queue{step}{suffix}-append",
        _MAXDEF,
        f"heappush(st.queues[{step}], {pushed})",
        f"st.queues[{step}].append({pushed})",
        killed_by,
    )


MUTANTS: tuple[Mutant, ...] = (
    # Queue 3's push of x itself is left out: appending it is an equivalent
    # mutant.  Step 3 comes before every rule that commits, and pops every
    # id it declines, so queue 3 is empty whenever ``_forbid`` runs, and
    # ``_forbid`` pushes ascending ids.
    _append(3, "x ^ 1", (
        "tests/test_maxdef.py::TestCandidateSets::"
        "test_candidate_missing_from_queue_rejected[step3]",
        "tests/test_maxdef.py::TestForbidStar::test_agrees_with_oracle[4-True]",
        _RUNS + "test_worked_example",
    )),
    _append(4, "x", (
        "tests/test_maxdef.py::TestStep3::test_partner_forbidden_later_blocks",
        _GOLDEN,
    )),
    _append(5, "x", (_LOOPED_BOTH + "[b1-first]",)),
    _append(6, "x", (_LOOPED_BOTH + "[b1-first]",)),
    _append(7, "x", (
        "tests/test_maxdef.py::TestTailFamily::test_cycle_lies_past_the_walk_start[1]",
        _GOLDEN,
    )),
    _append(8, "x", (
        "tests/test_maxdef.py::TestGadgetFamily::"
        "test_agrees_with_oracle_one_copy_per_round[1]",
        _GOLDEN,
    )),
    _append(8, "x ^ 1", (
        _LOOPED_BOTH + "[a1-first]",
        _RUNS + "test_worked_example",
    )),
    _append(9, "w", (
        "tests/test_maxdef.py::TestForbidStar::test_agrees_with_oracle[3-False]",
        _RUNS + "test_worked_example",
        _GOLDEN,
    )),
    Mutant(
        "queue-pop-from-end",
        _MAXDEF,
        "heappop(heap)",
        "heap.pop()",
        (
            "tests/test_maxdef.py::TestStep8::test_worked_example_merges_pairs_6_and_7",
            _RUNS + "test_isolated_pairs_resolved_by_step9",
            _RUNS + "test_worked_example",
        ),
    ),
    Mutant(
        "queue6-shares-queue5-list",
        _MAXDEF,
        "6: looped.copy(),",
        "6: looped,",
        (
            "tests/test_maxdef.py::TestLoopFamily::test_agrees_with_oracle[1-False]",
            _RUNS + "test_blocked_loop_regression",
            _GOLDEN,
        ),
    ),
    Mutant(
        "adjacency-unsorted",
        "sigdef/core.py",
        "pos_adj=tuple([tuple(sorted(s) if len(s) > 1 else s) for s in pos]),\n"
        "        neg_adj=tuple([tuple(sorted(s) if len(s) > 1 else s) for s in neg]),",
        "pos_adj=tuple([tuple(s) for s in pos]),\n"
        "        neg_adj=tuple([tuple(s) for s in neg]),",
        (
            "tests/test_core.py::TestBuildGraph::test_adjacency_symmetric_and_sorted",
            _GOLDEN,
            "tests/test_cli.py::test_golden_cli_digest",
        ),
    ),
    Mutant(
        "line-error-keeps-comments",
        "sigdef/sgio.py",
        'parts = raw.split("#", 1)[0].split()',
        "parts = raw.split()",
        _MALFORMED,
    ),
    Mutant(
        "edge-keyword-unchecked",
        "sigdef/sgio.py",
        'if target is None or a == b or e != "e":',
        "if target is None or a == b:",
        _MALFORMED,
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Replace the mutant's snippet in the copy of ``src/`` at ``src``."""
    path = src / mutant.path
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        raise SystemExit(f"{mutant.name}: snippet does not occur exactly once")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def surviving_tests(mutant: Mutant) -> list[str]:
    """The mutant's killing tests that do not fail on it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import sigdef; print(sigdef.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        ).stdout
        if not where.startswith(str(src)):
            raise SystemExit(f"the copy of src/ is not the one imported: {where}")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.killed_by],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    failed = {
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    return [test for test in mutant.killed_by if test not in failed]


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    survived = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        left = surviving_tests(mutant)
        survived += bool(left)
        verdict = f"SURVIVED {', '.join(left)}" if left else "killed"
        print(f"{mutant.name}: {len(mutant.killed_by)} tests, {verdict}", flush=True)
    print(f"{survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
