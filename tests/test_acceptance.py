"""Acceptance gate: one test per criterion, one printed line per check.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines with
measured values and tolerances, or `npde verify all` for the same checks from
the CLI.
"""

import pytest

import npde.stencil
from npde import verify


def _assert_all(results):
    for res in results:
        print(res.line())
    bad = [r for r in results if not r.passed]
    assert not bad, "failed checks: " + ", ".join(r.name for r in bad)


def test_criterion_01_stencil_fidelity():
    _assert_all(verify.check_stencils())


@pytest.mark.parametrize("name", ["3pt", "5pt", "9pt"])
def test_criterion_01_reads_the_running_kernels(monkeypatch, name):
    # criterion 1 measures the steps that run: a slip in the one 3-tap apply or
    # in one stencil of the one 2D Laplacian fails that stencil's line alone
    apply_taps, laplacian_2d = npde.stencil._apply_taps, npde.stencil._laplacian_2d
    if name == "3pt":
        monkeypatch.setattr(npde.stencil, "_apply_taps", lambda taps, P: 1.5 * apply_taps(taps, P))
    else:
        def slipped(P, S, stencil2d="5pt"):
            lap = laplacian_2d(P, S, stencil2d)
            return (lambda centre, out=None: 1.5 * lap(centre, out)) if stencil2d == name else lap
        monkeypatch.setattr(npde.stencil, "_laplacian_2d", slipped)
    failed = [r.name for r in verify.check_stencils() if not r.passed]
    assert failed == [f"stencil-{name}-taps"]


def test_criterion_02_heat_kernel_convergence():
    _assert_all(verify.check_heat_kernel())


def test_criterion_03_fisher_front_speed():
    _assert_all(verify.check_fisher_front())


def test_criterion_04_generator_solver_equivalence():
    _assert_all(verify.check_equivalence())


def test_criterion_05_gradient_exactness():
    _assert_all(verify.check_gradients())


def test_criterion_06_optimizer_contracts():
    _assert_all(verify.check_optimizers())


def test_criterion_07_xor_training_desk_scale():
    _assert_all(verify.check_xor_training())


def test_criterion_08_stability_dichotomy():
    _assert_all(verify.check_stability())


def test_criterion_09_conservation():
    _assert_all(verify.check_conservation())


def test_criterion_10_turing_pattern_variance():
    _assert_all(verify.check_turing())
