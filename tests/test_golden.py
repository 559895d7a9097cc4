"""Pinned outcomes of every variant on every suite problem.

For each of the 10 variants and 29 problems, at noise 0 and at one noisy
replication (relative level 0.25, fixed seed), a 50-iteration run is reduced
to ``(status, iters, evals, sha256(x_final bytes))`` and compared with the
values stored in ``golden_outcomes.json``.  A refactor that keeps this test
green changed no iterate.

To regenerate the stored values (only when an iterate is meant to change),
printing one ``tag@level problem: moved fields`` line per stored row that
changes:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from offo.driver import VARIANTS, run_variant
from offo.problems import load_suite

GOLDEN_PATH = Path(__file__).with_name("golden_outcomes.json")
ALL_TAGS = [*VARIANTS, "sdba"]
LEVELS = (0.0, 0.25)
NOISE_SEED = 20220303
MAX_ITER = 50
#: the fields of a pinned outcome, in order
FIELDS = ("status", "iters", "evals", "x")


def outcome(problem, tag: str, level: float) -> list:
    record = run_variant(problem, tag, max_iter=MAX_ITER, noise_level=level,
                         noise_seed=NOISE_SEED)
    x = np.ascontiguousarray(record.x_final, dtype="<f8")
    return [record.status, record.iters, record.evals, hashlib.sha256(x.tobytes()).hexdigest()]


def _key(tag: str, level: float) -> str:
    return f"{tag}@{level!r}"


def moved_fields(got: list, pinned: list) -> list:
    return [field for field, a, b in zip(FIELDS, got, pinned) if a != b]


def compute_all() -> dict:
    problems = load_suite()
    return {_key(tag, level): {p.name: outcome(p, tag, level) for p in problems}
            for tag in ALL_TAGS for level in LEVELS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def suite():
    return load_suite()


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_outcomes_match_pinned(golden, suite, tag, level):
    pinned = golden[_key(tag, level)]
    assert sorted(pinned) == sorted(p.name for p in suite)
    diffs = {p.name: (got, pinned[p.name]) for p in suite
             if (got := outcome(p, tag, level)) != pinned[p.name]}
    moved = {name: moved_fields(got, pin) for name, (got, pin) in diffs.items()}
    assert not diffs, (f"{len(diffs)} outcomes differ; moved fields by problem: {moved}; "
                       f"(got, pinned): {diffs}")


def write_golden(path: Path = GOLDEN_PATH) -> None:
    """One line per (variant, level, problem) so that diffs stay readable;
    prints the moved fields of each stored row that changes."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    blocks = []
    for key, by_problem in sorted(compute_all().items()):
        for name, out in sorted(by_problem.items()):
            pinned = stored.get(key, {}).get(name)
            if pinned is not None and pinned != out:
                print(f"{key} {name}: {', '.join(moved_fields(out, pinned))}")
        rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(out)}"
                          for name, out in sorted(by_problem.items()))
        blocks.append(f" {json.dumps(key)}: {{\n{rows}\n }}")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    write_golden()
    print(f"wrote {GOLDEN_PATH}")
