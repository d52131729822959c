"""skeinseq: mod-2 cube-of-resolutions homology, filtered-complex spectral
sequences over F2[u], and forced-differential inference."""

from .complexes import (
    CONV_FLOER,
    CONV_KH,
    ChainComplex,
    ChainMap,
    Generator,
    UHomology,
    collapse_all,
    collapse_pairs,
    homology,
    homology_f2,
    phi_action,
    substitute,
    tensor,
)
from .infer import PageSpec, Pattern, TargetSpec, Tower, enumerate_patterns, resolve_filtration
from .khovanov import LinkDiagram, basepoint_action, ckh, mirror, parse_pd, smooth, cyclic_knot, unlink
from .models import MODEL_NAMES, build_model, canonical_fg, run_model_suite, top_homology_table, verify_action
from .poly import FULL, HALF, Poly, VarSet, parse_poly
from .spectral import FilteredComplex, SpectralPage, analyze, check_constraints, converge, pages
from .umod import ModuleDecomposition

__version__ = "0.1.0"
