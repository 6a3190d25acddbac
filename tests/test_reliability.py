"""Fault injection, backoff, guarded solves, and the chaos harness."""

import json
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.errors import CalibrationError, InjectedFaultError, ReproError
from repro.reliability import (
    BUILTIN_PLANS,
    EXIT_OK,
    EXIT_RELIABILITY_BUG,
    EXIT_UNRECOVERABLE,
    FALLBACK_DIRECT,
    FALLBACK_RELAXATION,
    BackoffPolicy,
    FaultPlan,
    FaultSpec,
    apply_runner_fault,
    guarded_linear_solve,
    guarded_solve,
    load_plan,
    run_chaos,
    tear_cache_entry,
)

# -- backoff ----------------------------------------------------------


def test_backoff_is_deterministic_and_bounded():
    policy = BackoffPolicy(base_s=0.1, factor=2.0, max_s=1.0,
                           jitter=0.25, seed=7)
    first = policy.delay_s("E-T1", 1)
    assert first == policy.delay_s("E-T1", 1)  # same key -> same delay
    assert first != policy.delay_s("E-T2", 1)  # jitter spreads keys
    for attempt in range(1, 8):
        delay = policy.delay_s("E-T1", attempt)
        nominal = min(1.0, 0.1 * 2.0 ** (attempt - 1))
        assert 0.75 * nominal <= delay <= 1.25 * nominal
    assert policy.delay_s("E-T1", 0) == 0.0


def test_backoff_nominal_growth_until_cap():
    policy = BackoffPolicy(base_s=0.05, factor=2.0, max_s=0.4, jitter=0.0)
    delays = [policy.delay_s("k", a) for a in (1, 2, 3, 4, 5)]
    assert delays == [0.05, 0.1, 0.2, 0.4, 0.4]


def test_backoff_validation():
    with pytest.raises(ValueError):
        BackoffPolicy(base_s=-1.0)
    with pytest.raises(ValueError):
        BackoffPolicy(factor=0.5)
    with pytest.raises(ValueError):
        BackoffPolicy(jitter=1.0)


# -- fault plans ------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("meteor", "E-T1")
    with pytest.raises(ValueError):
        FaultSpec("crash", "E-T1", attempt=-1)
    with pytest.raises(ValueError):
        FaultSpec("slow-start", "E-T1", delay_s=-0.1)


def test_fault_spec_attempt_zero_fires_always():
    spec = FaultSpec("transient", "E-T1", attempt=0, recoverable=False)
    assert all(spec.fires_on(a) for a in (1, 2, 3, 9))
    once = FaultSpec("transient", "E-T1", attempt=2)
    assert not once.fires_on(1) and once.fires_on(2)


def test_plan_hooks_route_by_kind():
    plan = FaultPlan("t", (
        FaultSpec("crash", "E-T1"),
        FaultSpec("corrupt-cache", "E-T2"),
    ))
    assert plan.runner_fault("E-T1", 1).kind == "crash"
    assert plan.runner_fault("E-T1", 2) is None
    assert plan.runner_fault("E-T2", 1) is None  # cache faults only
    assert plan.cache_fault("E-T2").kind == "corrupt-cache"
    assert plan.cache_fault("E-T1") is None
    assert plan.experiment_ids == ("E-T1", "E-T2")


def test_plan_json_round_trip(tmp_path):
    plan = BUILTIN_PLANS["full-chaos"]
    payload = plan.to_json_dict()
    assert FaultPlan.from_json_dict(payload) == plan
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(payload))
    assert load_plan(str(path)) == plan


def test_random_plan_is_seed_deterministic():
    ids = [f"E-{i}" for i in range(30)]
    one = FaultPlan.random("r", ids, seed=11, rate=0.5)
    two = FaultPlan.random("r", ids, seed=11, rate=0.5)
    other = FaultPlan.random("r", ids, seed=12, rate=0.5)
    assert one == two
    assert one != other
    assert 0 < len(one.faults) < len(ids)


def test_load_plan_rejects_unknown_and_bad_file(tmp_path):
    with pytest.raises(ReproError, match="unknown fault plan"):
        load_plan("nope")
    bad = tmp_path / "bad.json"
    bad.write_text('{"faults": [{"kind": "meteor"}]}')
    with pytest.raises(ReproError, match="invalid fault plan"):
        load_plan(str(bad))


def test_apply_runner_fault_inline_degrades_to_exception():
    # crash/hang cannot take the calling process down when
    # allow_exit=False; they must degrade to a catchable exception.
    for kind in ("crash", "hang", "transient"):
        with pytest.raises(InjectedFaultError):
            apply_runner_fault(FaultSpec(kind, "E-T1", delay_s=0.0),
                               allow_exit=False)
    apply_runner_fault(None, allow_exit=False)  # no-op
    apply_runner_fault(FaultSpec("slow-start", "E-T1", delay_s=0.0),
                       allow_exit=False)  # sleeps then returns


def test_tear_cache_entry_truncates(tmp_path):
    path = tmp_path / "entry.rpc"
    path.write_bytes(b"x" * 100)
    assert tear_cache_entry(path)
    assert path.stat().st_size == 50
    assert not tear_cache_entry(tmp_path / "missing.rpc")


# -- guarded scalar solves --------------------------------------------


def test_guarded_solve_simple_root():
    found = guarded_solve(lambda x: x * x - 4.0, 0.0, 10.0,
                          name="square", xtol=1e-10)
    assert found.root == pytest.approx(2.0)
    assert found.diagnostics.method == "brentq"
    assert found.diagnostics.converged
    assert abs(found.diagnostics.residual) < 1e-6


def test_guarded_solve_endpoint_root_shortcut():
    found = guarded_solve(lambda x: x, 0.0, 1.0, name="origin")
    assert found.root == 0.0
    assert found.diagnostics.method == "bracket-endpoint"


def test_guarded_solve_rejects_bad_brackets():
    with pytest.raises(CalibrationError, match="empty bracket"):
        guarded_solve(lambda x: x, 1.0, 1.0, name="t")
    with pytest.raises(CalibrationError, match="non-finite bracket"):
        guarded_solve(lambda x: x, 0.0, math.inf, name="t")
    with pytest.raises(CalibrationError, match="no sign change"):
        guarded_solve(lambda x: x * x + 1.0, -1.0, 1.0, name="t")


def test_guarded_solve_rejects_nan_residual_at_bracket():
    with pytest.raises(CalibrationError, match="non-finite"):
        guarded_solve(lambda x: math.nan, 0.0, 1.0, name="t")


def test_guarded_solve_nan_escape_never_returned():
    # NaN appears mid-iteration: the solve must raise, not return NaN.
    def residual(x):
        return math.nan if 0.2 < x < 0.8 else 1.0 - 2.0 * x

    with pytest.raises(CalibrationError) as excinfo:
        guarded_solve(residual, 0.0, 1.0, name="nan-trap")
    assert "NaN" in str(excinfo.value) or "non-finite" in str(excinfo.value)


def test_guarded_solve_forced_nonconvergence_diagnostics():
    # One Brent iteration plus a two-step bisection cannot resolve a
    # 1e-12 tolerance: the error must carry the iteration budget spent.
    with pytest.raises(CalibrationError) as excinfo:
        guarded_solve(lambda x: math.cos(x) - x, 0.0, 1.0,
                      name="tight", xtol=1e-12, max_iter=1)
    error = excinfo.value
    assert error.iterations is not None and error.iterations >= 1
    assert error.fallback == "bisect"
    assert error.diagnostics.converged is False
    assert "iterations=" in str(error)


def test_guarded_solve_relaxation_fallback_converges():
    # A contraction-map residual the damped restart handles even when
    # Brent gets only one iteration.
    found = guarded_solve(lambda x: 0.5 * (2.0 - x) + 1.0 - x,
                          0.0, 4.0, name="fixed-point", xtol=1e-6,
                          max_iter=50, fallback=FALLBACK_RELAXATION)
    assert found.root == pytest.approx(4.0 / 3.0, abs=1e-4)


def test_guarded_solve_unknown_fallback_rejected():
    with pytest.raises(ValueError):
        guarded_solve(lambda x: x, -1.0, 1.0, name="t",
                      fallback="prayer")


# -- guarded linear solves --------------------------------------------


def test_guarded_linear_solve_sparse_system():
    matrix = csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    solution = guarded_linear_solve(matrix, np.array([1.0, 1.0]),
                                    name="t")
    assert solution.x == pytest.approx([1.0, 1.0])
    assert solution.diagnostics.residual <= 1e-8


def test_guarded_linear_solve_rejects_nonfinite_inputs():
    matrix = csr_matrix(np.eye(2))
    with pytest.raises(CalibrationError, match="NaN/Inf"):
        guarded_linear_solve(matrix, np.array([1.0, math.nan]), name="t")
    bad = csr_matrix(np.array([[math.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(CalibrationError, match="NaN/Inf"):
        guarded_linear_solve(bad, np.array([1.0, 1.0]), name="t")
    with pytest.raises(CalibrationError, match="empty"):
        guarded_linear_solve(matrix, np.array([]), name="t")


def test_guarded_linear_solve_singular_raises_structured():
    singular = csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(CalibrationError) as excinfo:
        guarded_linear_solve(singular, np.array([1.0, 2.0]), name="sing")
    assert excinfo.value.iterations is not None
    assert not np.any([math.isnan(0.0)])  # nothing non-finite escaped


def _chain_laplacian(n):
    """SPD tridiagonal chain Laplacian (both ends Dirichlet)."""
    diag = np.arange(n)
    off = np.arange(n - 1)
    rows = np.concatenate((diag, off + 1, off))
    cols = np.concatenate((diag, off, off + 1))
    data = np.concatenate((np.full(n, 2.0),
                           np.full(n - 1, -1.0), np.full(n - 1, -1.0)))
    return csr_matrix((data, (rows, cols)), shape=(n, n))


def test_guarded_linear_solve_cg_on_large_spd_system():
    from scipy.sparse.linalg import spsolve
    n = 400
    matrix = _chain_laplacian(n)
    rhs = np.ones(n)
    solution = guarded_linear_solve(matrix, rhs, name="cg-large",
                                    spd=True)
    assert solution.diagnostics.method == "cg"
    assert solution.diagnostics.fallback is None
    assert solution.diagnostics.iterations > 1
    assert solution.diagnostics.residual <= 1e-8
    direct = spsolve(matrix, rhs)
    np.testing.assert_allclose(solution.x, direct, rtol=1e-8,
                               atol=1e-10 * float(np.max(direct)))


def test_guarded_linear_solve_small_spd_stays_direct():
    # Below the CG threshold a factorization wins; spd=True must not
    # change the method there.
    matrix = _chain_laplacian(16)
    solution = guarded_linear_solve(matrix, np.ones(16), name="cg-small",
                                    spd=True)
    assert solution.diagnostics.method == "spsolve"
    assert solution.diagnostics.fallback is None


def test_guarded_linear_solve_spd_unset_stays_direct():
    matrix = _chain_laplacian(400)
    solution = guarded_linear_solve(matrix, np.ones(400), name="direct")
    assert solution.diagnostics.method == "spsolve"
    assert solution.diagnostics.fallback is None


def test_guarded_linear_solve_cg_miss_falls_back_to_direct():
    # A negative diagonal entry makes the matrix non-SPD: the CG
    # attempt is charged and misses, and the guarded direct
    # factorization still delivers the answer -- recorded as the
    # "direct" fallback so the iterative path never weakens the
    # guarantee.
    n = 300
    data = np.ones(n)
    data[7] = -1.0
    diag = np.arange(n)
    matrix = csr_matrix((data, (diag, diag)), shape=(n, n))
    rhs = np.ones(n)
    solution = guarded_linear_solve(matrix, rhs, name="cg-miss",
                                    spd=True)
    assert solution.diagnostics.method == "spsolve"
    assert solution.diagnostics.fallback == FALLBACK_DIRECT
    expected = np.ones(n)
    expected[7] = -1.0
    np.testing.assert_allclose(solution.x, expected)


class _CountingMatrix:
    """A CSR matrix that counts the products taken through it.

    The guard solves on ``tocsr()`` (the plain matrix) and checks each
    candidate with ``matrix @ x``, so ``products`` counts exactly the
    residual evaluations.
    """

    def __init__(self, csr):
        self._csr = csr
        self.data = csr.data
        self.products = 0

    def tocsr(self):
        return self._csr

    def __matmul__(self, x):
        self.products += 1
        return self._csr @ x


@pytest.mark.parametrize("spd, method", [(True, "cg"), (False, "spsolve")])
def test_guarded_linear_solve_checks_its_residual_once(spd, method):
    # Each residual is a full product plus two passes: the value that
    # passed the check is the one the diagnostics report.
    plain = _chain_laplacian(400)
    counting = _CountingMatrix(plain)
    rhs = np.ones(400)
    solution = guarded_linear_solve(counting, rhs, name="residual-once",
                                    spd=spd)
    assert solution.diagnostics.method == method
    assert counting.products == 1
    assert solution.diagnostics.residual \
        == float(np.max(np.abs(plain @ solution.x - rhs)))


# -- chaos harness ----------------------------------------------------


def _chaos(plan, ids, tmp_path, **kwargs):
    defaults = dict(jobs=1, retries=2, executor="inline",
                    cache_dir=tmp_path / "chaos-cache")
    defaults.update(kwargs)
    return run_chaos(plan, ids, **defaults)


def test_chaos_absorbs_transient_and_torn_cache(tmp_path):
    plan = FaultPlan("t", (
        FaultSpec("transient", "E-T1"),
        FaultSpec("corrupt-cache", "E-T2"),
    ))
    report = _chaos(plan, ["E-T1", "E-T2"], tmp_path)
    assert report.exit_code == EXIT_OK and report.ok
    assert len(report.absorbed) == 2 and not report.surfaced
    assert report.correct_results == report.total == 2
    warm = {r.experiment_id: r for r in report.warm.records}
    assert warm["E-T1"].cache_hit          # untouched entry reused
    assert not warm["E-T2"].cache_hit      # torn entry recomputed
    text = report.render()
    assert "2 absorbed" in text and "exit 0" in text


def test_chaos_unrecoverable_fault_surfaces_by_design(tmp_path):
    plan = FaultPlan("u", (
        FaultSpec("transient", "E-T1", attempt=0, recoverable=False),
    ))
    report = _chaos(plan, ["E-T1", "E-T2"], tmp_path)
    assert report.exit_code == EXIT_UNRECOVERABLE
    assert report.surfaced_unrecoverable
    assert not report.surfaced_recoverable
    # the warm pass still proves every result is computable
    assert report.correct_results == report.total == 2


def test_chaos_unabsorbed_recoverable_fault_is_a_bug(tmp_path):
    # With retries disabled a recoverable transient cannot be absorbed;
    # the harness must flag that as a reliability bug, not excuse it.
    plan = FaultPlan("b", (FaultSpec("transient", "E-T1"),))
    report = _chaos(plan, ["E-T1"], tmp_path, retries=0)
    assert report.exit_code == EXIT_RELIABILITY_BUG
    assert report.surfaced_recoverable


def test_chaos_reports_unfired_faults(tmp_path):
    plan = FaultPlan("n", (FaultSpec("transient", "E-C5"),))
    report = _chaos(plan, ["E-T1"], tmp_path)
    assert report.outcomes[0].outcome == "not-fired"
    assert report.exit_code == EXIT_OK


def test_chaos_json_report_shape(tmp_path):
    plan = FaultPlan("t", (FaultSpec("transient", "E-T1"),))
    report = _chaos(plan, ["E-T1"], tmp_path)
    payload = report.to_json_dict()
    assert payload["exit_code"] == 0
    assert payload["plan"]["name"] == "t"
    assert payload["outcomes"][0]["outcome"] == "absorbed"
    json.dumps(payload)  # fully serialisable


def test_builtin_plans_are_well_formed():
    assert set(BUILTIN_PLANS) == {"crash-transient", "smoke",
                                  "cache-torture", "full-chaos",
                                  "unrecoverable"}
    for name, plan in BUILTIN_PLANS.items():
        assert plan.name == name
        assert plan.faults
    assert BUILTIN_PLANS["unrecoverable"].unrecoverable
    assert not BUILTIN_PLANS["crash-transient"].unrecoverable
