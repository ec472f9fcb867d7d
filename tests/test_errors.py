"""The exit check `gha.errors._in_range` and the whole messages of the public
results that route through it."""

import math
import re

import pytest

from gha import hartree
from gha.errors import NonFiniteValue, _in_range
from gha.hartree import (OscillatorModel, Phase, classical_well_depth, critical_coupling,
                         gap_residual_scale, general_gap_residuals, solve_level)
from gha.qft import FieldTheory, effective_potential, static_potential
from gha.vacuum import vacuum_structure


class Unprintable:
    def __format__(self, spec):
        raise AssertionError("formatted a message for a finite result")


def test_a_finite_result_passes_without_formatting_its_message():
    for x in (0.0, -0.0, 5e-324, -1.5, 1.7976931348623157e308):
        assert _in_range(x, "{}", Unprintable()) is x


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_inf_or_nan_raises_the_formatted_message(x):
    with pytest.raises(NonFiniteValue, match=r"^U\(2\) at mR 0.5 leaves$"):
        _in_range(x, "U({}) at mR {} leaves", 2, 0.5)


# the winner step of this level passes its range rule, and h₀ overflows
H0_MODEL = (4, -1.0284317737687258e+45, 3.9488234573928826e-110)
QUARTIC = "OscillatorModel(power=4, g=1.0, lam=1.0)"
THEORY = FieldTheory(m2=1.0, lam=1e10, cutoff=10.0)


@pytest.mark.parametrize("call, message", [
    # (−2g/3)^{3/2} raises OverflowError
    (lambda: critical_coupling(0.5, -1e250), "lambda_c at g=-1e+250 leaves floating-point range"),
    # −2g overflows to inf without raising
    (lambda: critical_coupling(0.5, -1e308), "lambda_c at g=-1e+308 leaves floating-point range"),
    (lambda: solve_level(OscillatorModel(*H0_MODEL), 14),
     f"level 14 of OscillatorModel(power=4, g={H0_MODEL[1]!r}, lam={H0_MODEL[2]!r}) "
     "leaves floating-point range"),
    # ω² overflows in the gap residual, and gσ in the shift
    (lambda: general_gap_residuals(OscillatorModel(4, 1.0, 1.0), 0, 1e200, 0.0),
     f"gap residuals of level 0 of {QUARTIC} leave floating-point range"),
    (lambda: general_gap_residuals(OscillatorModel(4, 1e300, 1.0), 0, 1.0, 1e10),
     "gap residuals of level 0 of OscillatorModel(power=4, g=1e+300, lam=1.0) "
     "leave floating-point range"),
    (lambda: gap_residual_scale(OscillatorModel(8, 1.0, 1e308), 40, Phase.AHO),
     "gap residual scale of level 40 of OscillatorModel(power=8, g=1.0, lam=1e+308) "
     "leaves floating-point range"),
    (lambda: classical_well_depth(OscillatorModel(4, -1e200, 1.0)),
     "well depth of OscillatorModel(power=4, g=-1e+200, lam=1.0) leaves floating-point range"),
    # λσ⁴ = 1e310 overflows without raising
    (lambda: effective_potential(THEORY, 1e75),
     f"U(1e+75) of {THEORY!r} leaves floating-point range"),
    (lambda: static_potential(1e-200, 1.0), "U(1e-200) at mR 1.0 leaves floating-point range"),
    (lambda: vacuum_structure(1e-320),
     "condensate density at omega 1e-320 leaves floating-point range"),
], ids=["critical_coupling-raises", "critical_coupling-inf", "solve_level-h0",
        "general_gap_residuals-gap", "general_gap_residuals-shift", "gap_residual_scale",
        "classical_well_depth", "effective_potential", "static_potential", "vacuum_structure"])
def test_each_result_past_float_range_has_its_whole_message(call, message):
    with pytest.raises(NonFiniteValue, match=f"^{re.escape(message)}$"):
        call()


def test_the_h0_case_fails_after_its_winner_step():
    # the level's winner step stores its solution; only the coefficients fail
    model = OscillatorModel(*H0_MODEL)
    with pytest.raises(NonFiniteValue):
        solve_level(model, 14)
    assert 14 in model._winners and 14 not in model._levels
    assert math.isfinite(hartree._winner(model, 14, 14.5)[3])
