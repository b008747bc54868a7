"""Cylinder Hastings-Levitov laboratory: slit maps, growth processes, checks."""

import os

# chl computes in one thread, and its only BLAS call is a polyfit on a few
# points, but OpenBLAS starts one worker per extra core when numpy loads,
# which spins idle for about 0.1 s of CPU per process.  So default the pool
# to one thread before any submodule imports numpy; a value already set is
# kept, and a program that loaded numpy first keeps the pool it has.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .conformal import (
    CylinderParams,
    cyl_slit,
    cyl_slit_deriv,
    cyl_slit_deriv2,
    cyl_slit_many,
    cylinder_dist,
    halfplane_slit,
)
from .process import (
    Event,
    EventLog,
    backward_chl_trajectory,
    compose,
    drift,
    orbit,
    restrict_log,
    sample_events,
    sample_many,
)
from .quadrature import QuadratureResult, adaptive_quadrature
from .render import export_csv, export_svg, trace_cluster
from .rng import SplitMix64, mix_seed
from .verify import (
    CheckResult,
    McSummary,
    RateFit,
    farfield_expansion_check,
    mc_growth_check,
    quad_mean_shift,
    quad_squared_deriv,
    quad_squared_shift,
    run_suite,
    shift_commutation_check,
    slit_convergence_rate,
)

__version__ = "0.1.0"
