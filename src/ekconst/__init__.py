"""Euler-Kronecker constants of cyclotomic fields.

The library computes gamma_q (the constant term of the logarithmic
derivative of the Dedekind zeta function of the q-th cyclotomic field at
s = 1) from Dirichlet L-function data, verifies an exact finite-range
decomposition of gamma_q into prime-counting terms, and runs dyadic-range
experiments against log q. See the README for the CLI.
"""
from .accum import fsum_array
from .characters import (CharacterGroup, DirichletCharacter, build_group,
                         conductor_grid, enumerate_characters,
                         primitive_characters)
from .decomp import (DecompositionReport, conductor_correction, decompose,
                     gamma_q_from_prime_sums, layer_weight, mobius_layer_sum,
                     ramified_term)
from .ekgamma import (CacheCorruption, ConductorCache, GammaQ,
                      conductor_totals, gamma_q, l_at_one, precision_tag)
from .experiments import (EhProbeRecord, MeanStatistic, RangeStatistic,
                          RatioBin, ScanRecord, dyadic_mean, eh_probe, emit,
                          ratio_histogram, render, residue_sum_check,
                          residue_sum_checks, scan_range, theorem_statistic)
from .sieve import (MAX_TABLE_BOUND, ArithmeticTables, CapacityError,
                    build_tables, divisors, factorize, mobius, psi, psi_mod,
                    psi_mod_stream, psi_stream, totient)
from .stieltjes import (DEFAULT_EM_TERMS, EULER_GAMMA, StieltjesPair,
                        digamma_rational, stieltjes01, stieltjes_pair_table)

__version__ = "0.1.0"

__all__ = [
    "fsum_array",
    "CharacterGroup", "DirichletCharacter", "build_group", "conductor_grid",
    "enumerate_characters", "primitive_characters",
    "DecompositionReport", "conductor_correction", "decompose",
    "layer_weight", "mobius_layer_sum", "ramified_term",
    "CacheCorruption", "ConductorCache", "GammaQ", "conductor_totals",
    "gamma_q", "gamma_q_from_prime_sums", "l_at_one", "precision_tag",
    "EhProbeRecord", "MeanStatistic", "RangeStatistic", "RatioBin",
    "ScanRecord", "dyadic_mean", "eh_probe", "emit", "ratio_histogram",
    "render", "residue_sum_check", "residue_sum_checks", "scan_range",
    "theorem_statistic",
    "MAX_TABLE_BOUND", "ArithmeticTables", "CapacityError", "build_tables",
    "divisors", "factorize", "mobius", "psi", "psi_mod", "psi_mod_stream", "psi_stream",
    "totient",
    "DEFAULT_EM_TERMS", "EULER_GAMMA", "StieltjesPair", "digamma_rational",
    "stieltjes01", "stieltjes_pair_table",
    "__version__",
]
