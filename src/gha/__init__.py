"""Generalized Hartree approximation for anharmonic oscillators and the
Gaussian vacuum of quartic field theory.

The oscillator family is H = ½p² + ½gφ² + λφ^(2k) with 2k ∈ {4, 6, 8} and
either sign of g.  Each level carries its own optimal Gaussian basis fixed
by a self-consistent gap equation; on top of it a convergent perturbation
series is available, and a banded-basis diagonalizer provides independent
spectra for validation.
"""

from .errors import (BudgetExceeded, DomainError, GhaError, NoPhysicalRoot,
                     NonConvergence, NonFiniteValue, PhaseUnavailable)
from .hartree import (BranchInfo, HartreeSolution, OscillatorModel, Phase,
                      classical_well_depth, critical_coupling,
                      general_gap_residuals, hartree_coefficients,
                      solve_gap, solve_level, ssb_sigma_squared,
                      zeroth_energy)
from .hipt import Contribution, PerturbationReport, build_h_prime, second_order
from .ladder import (ModeParameters, NormalOrderedPolynomial, constant,
                     expectation, field_power, matrix_element,
                     momentum_squared, multiply)
from .oracle import (SpectrumEstimate, TruncatedBasis, converged_levels,
                     hamiltonian_matrix)
from .qft import (FieldTheory, GapState, RenormalizedParams, bessel_k1,
                  density_ratio, effective_potential, occupation,
                  peak_density, renormalized, solve_mass_gap,
                  static_potential, stevenson, structure_function)
from .tables import (ComparisonReport, ComparisonRow, Provenance,
                     ReferenceCell, ReferenceTable, reference_table,
                     run_table)
from .vacuum import (VacuumStructure, loglog_slope, strong_coupling_scaling,
                     vacuum_structure)

__version__ = "0.1.0"

__all__ = [
    "BranchInfo", "BudgetExceeded", "ComparisonReport", "ComparisonRow",
    "Contribution", "DomainError", "FieldTheory", "GapState", "GhaError",
    "HartreeSolution", "ModeParameters", "NoPhysicalRoot",
    "NonConvergence", "NonFiniteValue", "NormalOrderedPolynomial",
    "OscillatorModel", "PerturbationReport", "Phase", "PhaseUnavailable",
    "Provenance",
    "ReferenceCell", "ReferenceTable", "RenormalizedParams",
    "SpectrumEstimate", "TruncatedBasis", "VacuumStructure", "bessel_k1",
    "build_h_prime", "classical_well_depth", "constant", "converged_levels",
    "critical_coupling", "density_ratio", "effective_potential",
    "expectation", "field_power", "general_gap_residuals",
    "hamiltonian_matrix", "hartree_coefficients", "loglog_slope",
    "matrix_element", "momentum_squared", "multiply", "occupation",
    "peak_density", "reference_table", "renormalized", "run_table",
    "second_order", "solve_gap", "solve_level", "solve_mass_gap",
    "ssb_sigma_squared", "static_potential", "stevenson",
    "strong_coupling_scaling", "structure_function", "vacuum_structure",
    "zeroth_energy",
]
