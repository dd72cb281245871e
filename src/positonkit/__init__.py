"""positonkit: embedded eigenvalues of 1D Schrodinger operators on the line.

Direct scattering (Jost solutions, reflection/transmission, residues at
embedded poles), binary Darboux transformations that insert or remove
eigenvalues embedded in the continuous spectrum, the explicitly solvable
Wigner-von Neumann-type potential family used as exact ground truth, and the
Fredholm-determinant KdV evolution producing bounded positon solutions.
"""

from . import darboux, errors, kdv, scattering, schrodinger, tails, wvn_example
from .darboux import (
    EmbeddedStateSpec,
    TransformResult,
    chain_insert,
    insert_embedded,
    remove_embedded,
    transformed_solutions,
)
from .kdv import EvolvedState, dyson_q, kdv_residual, q_plus_evolved
from .schrodinger import Grid, PotentialSpec, right_jost
from .scattering import residue_at
from .wvn_example import ExampleParams

__version__ = "0.1.0"
