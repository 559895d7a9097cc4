"""Every suite problem's oracles pinned to a table near rounding.

``oracle_table.json`` holds, for each of the 29 problems, ``f`` and ``g`` at
the six points of ``test_oracle_consistency_at_six_points`` (x0 and five
perturbations from ``default_rng(1234)``; the points themselves are stored),
and the analytic Hessian, where the problem has one, at the second point.
A rewritten oracle must match the table to 1e-13 relative to
``max(1, |ref|_inf)``: central differences at 1e-5 would pass a gradient
that is off by far more than rounding.  Finite-difference Hessians are not
pinned, because they amplify a last-bit move of ``g``.

To write the table again (only when an oracle is meant to change):

    PYTHONPATH=src python tests/test_oracle_table.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from offo.problems import load_suite, suite_names

TABLE_PATH = Path(__file__).with_name("oracle_table.json")
RTOL = 1e-13


def six_points(p) -> list:
    """x0 and five perturbations, as ``test_oracle_consistency_at_six_points``
    draws them; the Hessian point is the second."""
    rng = np.random.default_rng(1234)
    return [p.x0] + [p.x0 + 0.05 * (1.0 + np.abs(p.x0)) * rng.standard_normal(p.n)
                     for _ in range(5)]


def table_row(p, points) -> dict:
    outs = [p.evaluate(x, ("value", "gradient")) for x in points]
    row = {"x": [x.tolist() for x in points],
           "f": [out["value"] for out in outs],
           "g": [out["gradient"].tolist() for out in outs]}
    if p.h is not None:
        row["h"] = p.evaluate(points[1], ("hessian",))["hessian"].tolist()
    return row


def mismatch(got, ref) -> float:
    """max|got - ref| over RTOL * max(1, |ref|_inf); the table holds at <= 1."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref)) / (RTOL * max(1.0, np.max(np.abs(ref)))))


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE_PATH.read_text())


def test_table_covers_the_suite(table):
    assert sorted(table) == suite_names()


@pytest.mark.parametrize("name", suite_names())
def test_oracles_match_the_table(table, name):
    (p,) = load_suite([name])
    ref = table[name]
    got = table_row(p, [np.array(x) for x in ref["x"]])
    assert sorted(got) == sorted(ref)
    moved = {f"{kind}[{i}]": ratio for kind in ("f", "g")
             for i, (a, b) in enumerate(zip(got[kind], ref[kind]))
             if (ratio := mismatch(a, b)) > 1.0}
    if "h" in ref and (ratio := mismatch(got["h"], ref["h"])) > 1.0:
        moved["h"] = ratio
    assert not moved, f"{name}: error over tolerance by quantity: {moved}"


def write_table(path: Path = TABLE_PATH) -> None:
    """One line per problem so that diffs stay readable."""
    lines = []
    for p in load_suite():
        lines.append(f" {json.dumps(p.name)}: {json.dumps(table_row(p, six_points(p)))}")
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write_table()
    print(f"wrote {TABLE_PATH}")
