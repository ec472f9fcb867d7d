"""Ladder-algebra references that the library itself no longer uses."""

from gha import ladder


def hamiltonian_polynomial(model, mode: ladder.ModeParameters):
    """H = ½p² + ½gφ² + λφ^{2k} as a normal-ordered ladder polynomial."""
    h = ladder.momentum_squared(mode).scale(0.5)
    h = h + ladder.field_power(2, mode).scale(0.5 * model.g)
    h = h + ladder.field_power(model.power, mode).scale(model.lam)
    return h
