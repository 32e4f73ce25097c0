"""The benchmark's output check passes this library's outputs against the
stored reference, and fails every op once the reference is perturbed the
way a changed model would move it."""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

OPS_CHECKED = {"solve_sweep": 40, "frontier": 2, "capacity_large_n": 4}
SHIFT = 1e-4  # relative capacity error far above any stored tolerance


@pytest.fixture(scope="module", params=sorted(workloads.SETUPS))
def ran(request):
    workload = workloads.SETUPS[request.param]()
    order = workloads.op_order(len(workload.ops), seed=3)[: OPS_CHECKED[request.param]]
    done = [(int(i), workload.run_op(workload.ops[i])) for i in order]
    return workload, done


def shifted(row, field: int, by: float):
    """A point row [p_r, r_ea, r_eb, tol_p, tol_a, tol_b] with one field moved."""
    row = list(row)
    row[field] += by
    return row


def perturbations(name: str, entry) -> list:
    """The entry as a changed model would leave it: node A's capacity off
    by SHIFT relative and, where a relay power is solved for, the relay
    power off by three of its tolerances."""
    if name == "capacity_large_n":
        return [[entry[0] * (1.0 + SHIFT), entry[1]]]
    out = []
    for field, by in ((1, lambda r: SHIFT * (1.0 + abs(r[1]))), (0, lambda r: 3.0 * r[3])):
        if name == "solve_sweep":
            point, silenced, degenerate = entry
            out.append([shifted(point, field, by(point)), silenced, degenerate])
        else:
            out.append(dict(entry, weighted=[shifted(r, field, by(r)) for r in entry["weighted"]]))
    return out


def failures(workload, done) -> int:
    return sum(workload.op_failed(i, out) for i, out in done)


def test_outputs_match_reference(ran):
    workload, done = ran
    assert failures(workload, done) == 0


def test_perturbed_reference_fails_every_op(ran):
    workload, done = ran
    variants = {i: perturbations(workload.name, workload.reference[i]) for i, _ in done}
    for k in range(len(variants[done[0][0]])):
        bad = copy.copy(workload)
        bad.reference = {i: v[k] for i, v in variants.items()}
        assert failures(bad, done) == len(done)


def test_raised_op_counts_as_failed(ran):
    workload, done = ran
    assert failures(workload, done + [(done[0][0], None)]) == 1
