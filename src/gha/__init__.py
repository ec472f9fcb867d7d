"""Generalized Hartree approximation for anharmonic oscillators and the
Gaussian vacuum of quartic field theory.

The oscillator family is H = ½p² + ½gφ² + λφ^(2k) with 2k ∈ {4, 6, 8} and
either sign of g.  Each level carries its own optimal Gaussian basis fixed
by a self-consistent gap equation; on top of it a convergent perturbation
series is available, and a banded-basis diagonalizer provides independent
spectra for validation.

`import gha` loads no submodule.  Each public name, and each submodule
(`gha.oracle`, `gha.tables`, …), resolves on first access through the
module `__getattr__` (PEP 562), which imports the module that defines it.
Resolved names are not stored here, so `gha.X` always is the current
`gha.<module>.X`.
"""

import importlib

__version__ = "0.1.0"

# home module of every public name
_HOMES = {
    "errors": ("BudgetExceeded", "DomainError", "GhaError", "NonConvergence",
               "NonFiniteValue", "PhaseUnavailable"),
    "hartree": ("BranchInfo", "HartreeSolution", "OscillatorModel", "Phase",
                "classical_well_depth", "critical_coupling", "solve_level"),
    "hipt": ("Contribution", "PerturbationReport", "second_order"),
    "oracle": ("SpectrumEstimate", "converged_levels", "hamiltonian_matrix"),
    "qft": ("FieldTheory", "GapState", "RenormalizedParams",
            "effective_potential", "renormalized", "solve_mass_gap",
            "static_potential", "stevenson"),
    "tables": ("ComparisonReport", "ComparisonRow", "Provenance",
               "ReferenceCell", "ReferenceTable", "reference_table",
               "run_table"),
    "vacuum": ("VacuumStructure", "loglog_slope", "strong_coupling_scaling",
               "vacuum_structure"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
# `gha.ladder` exports no public name but still resolves as a submodule
_SUBMODULES = frozenset({*_HOMES, "cli", "ladder"})

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
