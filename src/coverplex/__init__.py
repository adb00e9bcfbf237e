"""Exact cover decomposition and greedy strip-cover scheduling for convex
polygon translates."""

from .cover import (ColorAssignment, DecompositionTrace, compute_cover,
                    decompose_points, decompose_translates)
from .geometry import (ConvexPolygon, GeometryError, GridSpec,
                       cell_partition, grid_spec, reflect,
                       strict_support_edges)
from .levelcurve import (EmptyLevelCurveError, LevelCurve, WedgeFrame,
                         build_level_curve, canonical_positions)
from .planar import (PlanarInstance, PlanarSchedule, PlanarSensor,
                     plan_schedule, planar_load)
from .rsc import (RscInstance, Schedule, Sensor, duration, greedy_schedule,
                  load)
from .verify import (VerificationReport, rsc_opt_bruteforce, verify_coloring,
                     verify_planar, verify_rsc)

__version__ = "0.1.0"
