"""Golden conformance suite (see repro.experiments.conformance).

The committed fingerprints pin the simulator's end-to-end behaviour --
full WindowStats plus a digest over the ordered delivery stream -- for
every tiny-scale topology x routing combination.  Serial, process-pool,
legacy-routing, checker-enabled, kernel-backend and kernel-fallback runs
must all reproduce them bit-identically; an intended behaviour change
regenerates the goldens
(``python -m repro.experiments.conformance --write``) so the diff is
reviewed with the change that caused it.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.experiments import conformance
from repro.sim.vec.kernel import load_kernel as _load_kernel

GOLDEN = Path(__file__).parent / "golden" / "conformance.json"

#: One case per topology for the expensive re-runs (legacy routing,
#: process pool); the full matrix runs serially and under the checker.
SPOT_CASES = ["sf-floor/ugal", "sf-ceil/min", "mlfm/inr", "oft/ugal"]


@pytest.fixture(scope="module")
def golden():
    return conformance.load_golden(str(GOLDEN))


def test_case_keys_cover_all_combinations():
    # 4 evaluation configs x 3 routings, and the golden file has them all.
    assert len(conformance.CASE_KEYS) == 12
    assert set(conformance.load_golden(str(GOLDEN))) == set(conformance.CASE_KEYS)
    assert set(SPOT_CASES) <= set(conformance.CASE_KEYS)


@pytest.mark.parametrize("case_key", conformance.CASE_KEYS)
def test_serial_matches_golden(golden, case_key):
    got = conformance.run_case(case_key)
    problems = conformance.diff_fingerprints({case_key: golden[case_key]},
                                             {case_key: got})
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("case_key", conformance.CASE_KEYS)
def test_checker_preserves_physics(golden, case_key):
    # Acceptance: --check runs every configs combination without a
    # violation, and the checked run's observable behaviour (stats and
    # delivery stream) is identical to the unchecked golden.
    got = conformance.run_case(case_key, check=True)
    problems = conformance.diff_fingerprints({case_key: golden[case_key]},
                                             {case_key: got})
    assert not problems, "\n".join(problems)


needs_kernel = pytest.mark.skipif(
    _load_kernel() is None,
    reason="compiled kernel unavailable (no compiler or REPRO_NO_KERNEL set)",
)


@needs_kernel
@pytest.mark.parametrize("check,fastpath", [
    (False, True),   # route fast path live (the production default)
    (False, False),  # REPRO_KERNEL_NO_FASTPATH: per-packet escapes
    (True, True),    # checker wraps make_packet: fast path self-gates
])
@pytest.mark.parametrize("case_key", conformance.CASE_KEYS)
def test_kernel_backend_matches_golden(golden, case_key, check, fastpath,
                                       monkeypatch):
    # The compiled-kernel acceptance bar: every committed fingerprint is
    # reproduced bit-identically by the C dispatch core -- checked (the
    # audit-based BatchedChecker over kernel runs), unchecked with the
    # C route-selection fast path live (where the delivery listener
    # forces only the deliver escape), and with the fast path disabled
    # via the REPRO_KERNEL_NO_FASTPATH escape hatch.  The on/off pair
    # is the differential gate on the C routing + RNG replica itself.
    if fastpath:
        monkeypatch.delenv("REPRO_KERNEL_NO_FASTPATH", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNEL_NO_FASTPATH", "1")
    got = conformance.run_case(case_key, check=check, backend="kernel")
    problems = conformance.diff_fingerprints({case_key: golden[case_key]},
                                             {case_key: got})
    assert not problems, "\n".join(problems)


@needs_kernel
@pytest.mark.parametrize("case_key", conformance.CASE_KEYS)
def test_kernel_no_listener_stats_match_golden(golden, case_key):
    # Without a delivery listener the kernel's C delivery-accounting
    # fast path is live (no per-packet deliver escape at all); the
    # WindowStats it accumulates C-side -- including the order-
    # sensitive latency reductions -- must still equal the goldens.
    got = conformance.run_case(case_key, backend="kernel", listener=False)
    assert got["digest"] is None  # stats-only fingerprint
    problems = conformance.diff_fingerprints({case_key: golden[case_key]},
                                             {case_key: got})
    assert not problems, "\n".join(problems)


def _fallback_run(run, **kwargs):
    """*run* with ``backend="kernel"`` while the kernel is unavailable:
    exactly one RuntimeWarning, then the object engine."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run(backend="kernel", **kwargs)
    assert [w.category for w in caught] == [RuntimeWarning]
    return got


@pytest.mark.parametrize("case_key", conformance.CASE_KEYS)
def test_kernel_fallback_checked_matches_golden(golden, case_key, no_kernel):
    # No compiler: backend="kernel" falls back to the object engine,
    # built with the object invariant checker, and every golden holds.
    got = _fallback_run(conformance.run_case, case_key=case_key, check=True)
    problems = conformance.diff_fingerprints({case_key: golden[case_key]},
                                             {case_key: got})
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("case_key", SPOT_CASES)
def test_legacy_routing_matches_golden(golden, case_key):
    got = conformance.run_case(case_key, compiled=False)
    problems = conformance.diff_fingerprints({case_key: golden[case_key]},
                                             {case_key: got})
    assert not problems, "\n".join(problems)


def test_process_pool_matches_golden(golden):
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(conformance.run_case, SPOT_CASES))
    computed = dict(zip(SPOT_CASES, results))
    problems = conformance.diff_fingerprints(
        {key: golden[key] for key in SPOT_CASES}, computed
    )
    assert not problems, "\n".join(problems)


# -- fault-schedule golden (repro.resilience) -------------------------------

FAULT_GOLDEN = Path(__file__).parent / "golden" / "fault_conformance.json"


@pytest.fixture(scope="module")
def fault_golden():
    return conformance.load_fault_golden(str(FAULT_GOLDEN))


@pytest.mark.parametrize("check,backend", [
    (False, "object"),
    (True, "object"),
    pytest.param(False, "kernel", marks=needs_kernel),
    pytest.param(True, "kernel", marks=needs_kernel),
])
def test_fault_case_matches_golden(fault_golden, check, backend):
    # The deterministic fault-schedule run (fail + recover + seeded
    # drip, mid-measurement) must reproduce the committed fingerprint
    # -- delivery stream, stats AND reroute counts -- on both backends,
    # checked and unchecked.  The kernel rows exercise the fault
    # divert escape (ENTER on a dead port) and the fail-time drain
    # through the engine's cold-path mirrors.
    got = conformance.run_fault_case(check=check, backend=backend)
    problems = conformance.diff_fault_fingerprint(fault_golden, got)
    assert not problems, "\n".join(problems)


def test_fault_case_kernel_fallback_matches_golden(fault_golden, no_kernel):
    # The fault golden on the no-compiler fallback, under the object
    # checker: the fault manager takes the object drain/divert paths.
    got = _fallback_run(conformance.run_fault_case, check=True)
    problems = conformance.diff_fault_fingerprint(fault_golden, got)
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("check", [False, True])
def test_fault_case_kernel_no_fastpath_matches_golden(fault_golden, check,
                                                      monkeypatch):
    # The fault golden again with the kernel fast paths forced off:
    # both halves of the escape hatch must reproduce the same
    # fingerprint, or the hatch itself would mask a fast-path bug.
    if _load_kernel() is None:
        pytest.skip("compiled kernel unavailable")
    monkeypatch.setenv("REPRO_KERNEL_NO_FASTPATH", "1")
    got = conformance.run_fault_case(check=check, backend="kernel")
    problems = conformance.diff_fault_fingerprint(fault_golden, got)
    assert not problems, "\n".join(problems)


def test_fault_case_matches_golden_in_pool(fault_golden):
    with ProcessPoolExecutor(max_workers=1) as pool:
        got = pool.submit(conformance.run_fault_case).result()
    problems = conformance.diff_fault_fingerprint(fault_golden, got)
    assert not problems, "\n".join(problems)


def test_fault_diff_reports_fault_counters(fault_golden):
    mutated = {
        "stats": dict(fault_golden["stats"]),
        "digest": fault_golden["digest"],
        "delivered": fault_golden["delivered"],
        "faults": dict(fault_golden["faults"], reroutes=-1),
    }
    problems = conformance.diff_fault_fingerprint(fault_golden, mutated)
    assert any("faults.reroutes changed" in p for p in problems)


def test_diff_reports_are_actionable(golden):
    # The diff helper names the case, the field and both values --
    # that's what makes a golden failure debuggable.
    ref = golden["oft/min"]
    mutated = {
        "stats": dict(ref["stats"], ejected_packets=-1),
        "digest": "0" * 64,
        "delivered": 0,
    }
    problems = conformance.diff_fingerprints({"oft/min": ref}, {"oft/min": mutated})
    assert any("digest changed" in p for p in problems)
    assert any("stats.ejected_packets changed" in p for p in problems)
    assert conformance.diff_fingerprints({"oft/min": ref}, {}) == [
        "oft/min: missing from computed set"
    ]
