"""The acceptance gate: every criterion at its stated tolerance.

Each test invokes the corresponding suite function with its frozen
parameters and seeds, printing the measured values on failure.
"""
import pytest

from pinninglab import acceptance as acc


@pytest.mark.parametrize("fn", acc.CRITERIA, ids=[f.__name__ for f in acc.CRITERIA])
def test_criterion(fn):
    res = acc.run_criterion(fn)
    print(res.line())
    assert res.passed, res.details


def test_mutation_hook_is_detected(monkeypatch):
    # negative control: a corrupted overlap normalization must trip criterion 2
    from pinninglab import hierarchy

    exact = hierarchy.pair_overlap_sum
    monkeypatch.setattr(hierarchy, "pair_overlap_sum",
                        lambda n, B: exact(n, B) * (1.0 + 1e-6))
    res = acc.crit_02_overlap_identity()
    assert not res.passed


def test_dp_consistency_detects_a_perturbed_green_table(monkeypatch):
    # negative control: the Green side sees K(1) lowered by a relative 1e-8,
    # which must trip criterion 6
    import dataclasses

    from pinninglab import renewal

    exact = renewal.green_function

    def perturbed(law, N):
        mass = law.mass.copy()
        mass[1] *= 1.0 - 1e-8
        return exact(dataclasses.replace(law, mass=mass), N)

    monkeypatch.setattr(renewal, "green_function", perturbed)
    res = acc.crit_06_dp_consistency()
    print(res.line())
    assert not res.passed
