"""Pinned outcomes of every variant on every suite problem, and of the long
runs behind the theory checks.

For each of the 10 variants and 29 problems, at noise 0 and at one noisy
replication (relative level 0.25, fixed seed), a 50-iteration run is reduced
to ``(status, iters, evals, sha256(x_final bytes))`` and compared with the
values stored in ``golden_outcomes.json``, which also records the NumPy version
that wrote it and its BLAS: NumPy gives its normal sampler no stream guarantee
across versions (NEP 19), and 25 of the 29 gradients (the 24 sums of squares
and hilbert) are BLAS ``dgemv`` products, whose rounding depends on the kernel
that OpenBLAS picks for the CPU at run time.  So on a mismatch rows may move
for either reason alone, and the failure message names such a difference; it
is not a gate.  ``golden_theory.json`` pins the sha256 of the sharp1 (1e4
steps) and sharp2 (5e4 steps) knot arrays, of the sharp1 retrace's trace ``x``
and ``g``, and of one 2,000-iteration ``record_f`` run per model-free variant
(one per scaling kind) on ``quadratic_testbed(5)`` started at x0 = 10, where
every variant runs most of its budget.  A refactor that keeps these tests
green changed no iterate.

To regenerate the stored values (only when an iterate is meant to change),
printing one ``tag@level problem: moved fields`` or ``row: moved fields``
line per stored row that changes:

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from offo.bench import quadratic_testbed
from offo.driver import VARIANTS, RunConfig, astr1, run_variant
from offo.problems import load_suite
from offo.sharpness import build_counterexample, interpolant_problem

GOLDEN_PATH = Path(__file__).with_name("golden_outcomes.json")
THEORY_PATH = Path(__file__).with_name("golden_theory.json")
ALL_TAGS = [*VARIANTS, "sdba"]
#: the model-free variants, one per scaling kind
MODEL_FREE = [tag for tag, (_, model, _) in VARIANTS.items() if model == "none"]
LEVELS = (0.0, 0.25)
NOISE_SEED = 20220303
MAX_ITER = 50
#: the fields of a pinned outcome, in order
FIELDS = ("status", "iters", "evals", "x")
#: the knot sequences pinned, as the theory-retrace benchmark builds them
SHARP = (("sharp1", {"mu": 0.5, "eta": 0.01, "varsigma": 0.01}, 10_000),
         ("sharp2", {"nu": 1.0 / 9.0, "omega": 4.0 / 9.0 + 0.01}, 50_000))
#: iterations of the pinned record_f run of each model-free variant, and its start
#: (from x0 = 1, maxg-comp lands on the minimizer in one step)
RECORD_F_ITERS = 2000
RECORD_F_X0 = 10.0


def outcome(problem, tag: str, level: float) -> list:
    record = run_variant(problem, tag, max_iter=MAX_ITER, noise_level=level,
                         noise_seed=NOISE_SEED)
    x = np.ascontiguousarray(record.x_final, dtype="<f8")
    return [record.status, record.iters, record.evals, hashlib.sha256(x.tobytes()).hexdigest()]


def _key(tag: str, level: float) -> str:
    return f"{tag}@{level!r}"


def openblas_core():
    """The CPU core whose kernels OpenBLAS picked at run time, e.g. "SkylakeX",
    or None when NumPy's bundled library exports no core name."""
    for lib in sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def blas_config() -> dict:
    """The BLAS that NumPy was built with, and the core it runs on here."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"), "core": openblas_core()}


def version_note(golden: dict) -> str:
    """Names a NumPy version or BLAS difference as the likely cause of a mismatch."""
    notes = []
    pinned = golden.get("numpy")
    if pinned != np.__version__:
        notes.append(f"the rows were written with NumPy {pinned} and this is NumPy "
                     f"{np.__version__}, whose normal sampler may differ (NEP 19)")
    pinned, here = golden.get("blas"), blas_config()
    if pinned != here:
        notes.append(f"the rows were written with BLAS {pinned} and this is BLAS {here}, "
                     "whose dgemv kernels may round the gradients differently")
    if not notes:
        return ""
    return "; " + "; ".join(notes) + ": a version or BLAS difference is the likely cause"


def moved_fields(got: list, pinned: list) -> list:
    return [field for field, a, b in zip(FIELDS, got, pinned) if a != b]


def compute_all() -> dict:
    problems = load_suite()
    return {_key(tag, level): {p.name: outcome(p, tag, level) for p in problems}
            for tag in ALL_TAGS for level in LEVELS}


def _sha256(*arrays) -> str:
    """sha256 over the little-endian float64 bytes of the arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def theory_rows() -> dict:
    """Row name -> pinned fields of each long run behind the theory checks."""
    rows = {}
    for kind, params, steps in SHARP:
        knots = build_counterexample(kind, params, steps)
        rows[f"knots {kind}"] = {"sha256": _sha256(knots.x, knots.f, knots.g, knots.s)}
        if kind == "sharp1":
            config = RunConfig(scaling=knots.strategy, model="none", norm="inf", eps=1e-30,
                               max_iter=steps, keep_trace=True)
            trace = astr1(interpolant_problem(knots), config).trace
            rows[f"retrace {kind}"] = {"x": _sha256(trace["x"]), "g": _sha256(trace["g"])}
    for tag in MODEL_FREE:
        record = run_variant(quadratic_testbed(5, x0_scale=RECORD_F_X0), tag, eps=1e-30,
                             max_iter=RECORD_F_ITERS, record_f=True)
        rows[f"record_f {tag}"] = {"status": record.status, "iters": record.iters,
                                   "f": _sha256(record.trace["f"]),
                                   "gnorm": _sha256(record.trace["gnorm"]),
                                   "x": _sha256(record.x_final)}
    return rows


def moved_keys(got: dict, pinned: dict) -> list:
    return [key for key in {**pinned, **got} if got.get(key) != pinned.get(key)]


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
                       f"(got, pinned): {diffs}{version_note(golden)}")


def test_theory_path_matches_pinned():
    pinned = json.loads(THEORY_PATH.read_text())
    got = theory_rows()
    assert sorted(got) == sorted(pinned)
    moved = {row: keys for row in got if (keys := moved_keys(got[row], pinned[row]))}
    assert not moved, f"moved fields by row: {moved}; got {got}"


def write_golden(path: Path = GOLDEN_PATH) -> None:
    """One line per (variant, level, problem) so that diffs stay readable,
    after the NumPy version and the BLAS; prints the moved fields of each
    stored row that changes."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    blocks = [f" \"numpy\": {json.dumps(np.__version__)}",
              f" \"blas\": {json.dumps(blas_config())}"]
    for key, by_problem in sorted(compute_all().items()):
        for name, out in sorted(by_problem.items()):
            pinned = stored.get(key, {}).get(name)
            if pinned is not None and pinned != out:
                print(f"{key} {name}: {', '.join(moved_fields(out, pinned))}")
        rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(out)}"
                          for name, out in sorted(by_problem.items()))
        blocks.append(f" {json.dumps(key)}: {{\n{rows}\n }}")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def write_theory(path: Path = THEORY_PATH) -> None:
    """One line per row; prints the moved fields of each stored row that changes."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    rows = theory_rows()
    for name, row in rows.items():
        if name in stored and stored[name] != row:
            print(f"{name}: {', '.join(moved_keys(row, stored[name]))}")
    lines = ",\n".join(f" {json.dumps(name)}: {json.dumps(row)}" for name, row in rows.items())
    path.write_text("{\n" + lines + "\n}\n")


if __name__ == "__main__":
    write_golden()
    print(f"wrote {GOLDEN_PATH}")
    write_theory()
    print(f"wrote {THEORY_PATH}")
