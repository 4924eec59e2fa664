"""Exact pi-adic exterior algebra, lattice intersections, and chart-level
condition checkers for ramified unitary moduli problems."""

from .chart import (ChartPoint, ConditionReport, Verdict, check_kl,
                    check_kottwitz, check_naive_relations, check_refined,
                    check_spin, check_trace, check_wedge, full_report,
                    wedge_vector)
from .errors import FieldMismatchError, PrecisionExhaustedError, SchemaError
from .exterior import (Frame, WedgeVector, basis_wedge, f_frame, form_eval,
                       frame_in_e, g_frame, wedge_columns, worst_terms)
from .fields import PrimeField, Rationals
from .indexsets import (IndexSet, index_masks, shuffle_sign,
                        sigma_sign_bruteforce)
from .lattices import (AnnihilatorSet, BlockLattice, DVRTriangularBasis,
                       ResidueBasis, annihilators, reduce_mod_pi)
from .rings import DualNumbers, FieldRing, PolyRing
from .scalars import PiLaurent, truncated_inverse

__version__ = "0.1.0"

__all__ = [
    "AnnihilatorSet", "BlockLattice", "ChartPoint", "ConditionReport",
    "DVRTriangularBasis", "DualNumbers", "FieldMismatchError", "FieldRing",
    "Frame", "IndexSet", "PiLaurent", "PolyRing", "PrecisionExhaustedError",
    "PrimeField", "Rationals", "ResidueBasis", "SchemaError", "Verdict",
    "WedgeVector",
    "annihilators", "basis_wedge", "check_kl", "check_kottwitz",
    "check_naive_relations", "check_refined", "check_spin", "check_trace",
    "check_wedge", "f_frame", "form_eval", "frame_in_e", "full_report",
    "g_frame", "index_masks", "reduce_mod_pi", "shuffle_sign",
    "sigma_sign_bruteforce", "truncated_inverse", "wedge_columns",
    "wedge_vector", "worst_terms",
]
