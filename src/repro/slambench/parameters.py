"""Design spaces, default configurations and objectives of the two applications.

The KFusion space matches Section III-B of the paper (roughly 1.8 million
configurations); the ElasticFusion space matches Section III-C (roughly
450,000 configurations: three numeric parameters plus five boolean flags).
Default values are the ones shipped with the applications, i.e. the expert
hand-tuned baselines HyperMapper is compared against.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.objectives import Objective, ObjectiveSet
from repro.core.parameters import BooleanParameter, OrdinalParameter
from repro.core.space import Configuration, DesignSpace

#: The paper's validity limit on the (maximum) absolute trajectory error.
ACCURACY_LIMIT_M = 0.05


# ---------------------------------------------------------------------------
# KinectFusion
# ---------------------------------------------------------------------------

def kfusion_design_space() -> DesignSpace:
    """The KFusion algorithmic design space (about 1.8 M configurations).

    Parameters (defaults in parentheses) follow Section III-B:

    * ``volume_resolution`` (256) — voxels per axis of the TSDF grid,
    * ``mu`` (0.1 m) — TSDF truncation distance,
    * ``pyramid_iterations_0/1/2`` (10/5/4) — ICP iterations per pyramid level,
    * ``compute_size_ratio`` (1) — input image down-scaling factor,
    * ``tracking_rate`` (1) — localize every N-th frame,
    * ``icp_threshold`` (1e-5) — ICP early-termination threshold,
    * ``integration_rate`` (2) — integrate every N-th frame.
    """
    return DesignSpace(
        [
            OrdinalParameter("volume_resolution", [64, 128, 256], default=256),
            OrdinalParameter(
                "mu",
                [0.025, 0.05, 0.075, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5],
                default=0.1,
            ),
            OrdinalParameter("pyramid_iterations_0", [2, 4, 6, 8, 10], default=10),
            OrdinalParameter("pyramid_iterations_1", [0, 1, 2, 3, 5], default=5),
            OrdinalParameter("pyramid_iterations_2", [0, 1, 2, 4], default=4),
            OrdinalParameter("compute_size_ratio", [1, 2, 4, 8], default=1),
            OrdinalParameter("tracking_rate", [1, 2, 3, 4, 5], default=1),
            OrdinalParameter(
                "icp_threshold", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1], default=1e-5
            ),
            OrdinalParameter("integration_rate", [1, 2, 3, 4, 5], default=2),
        ],
        name="kfusion",
    )


def kfusion_default_config() -> Configuration:
    """The expert/default KFusion configuration (SLAMBench defaults)."""
    return kfusion_design_space().default_configuration()


def kfusion_objectives(accuracy_limit_m: float = ACCURACY_LIMIT_M) -> ObjectiveSet:
    """KFusion objectives: maximum ATE (with validity limit) and frame runtime."""
    return ObjectiveSet(
        [
            Objective("max_ate_m", minimize=True, unit="m", limit=accuracy_limit_m),
            Objective("runtime_s", minimize=True, unit="s/frame"),
        ]
    )


# ---------------------------------------------------------------------------
# ElasticFusion
# ---------------------------------------------------------------------------

def elasticfusion_design_space() -> DesignSpace:
    """The ElasticFusion algorithmic design space (about 450 K configurations).

    Numeric parameters (defaults in parentheses): ``icp_rgb_weight`` (10),
    ``depth_cutoff`` (3 m), ``confidence_threshold`` (10).  Boolean flags:
    ``so3_prealignment`` (on), ``open_loop`` (off), ``relocalisation`` (on),
    ``fast_odometry`` (off), ``frame_to_frame_rgb`` (off).

    Note the sign convention: the paper's flag is "disable SO3 pre-alignment";
    we expose the positive form ``so3_prealignment`` whose default (True)
    matches the paper's default column (SO3 = 1).
    """
    # float(): round() of a NumPy scalar is a NumPy scalar, and the values
    # must be the Python floats a configuration revived from JSON holds.
    weight_values = [float(round(x, 1)) for x in np.arange(0.5, 12.01, 0.5)]
    depth_values = [float(round(x, 1)) for x in np.arange(1.0, 10.01, 0.5)]
    confidence_values = [float(round(x, 1)) for x in np.arange(1.0, 15.01, 0.5)]
    return DesignSpace(
        [
            OrdinalParameter("icp_rgb_weight", weight_values, default=10.0),
            OrdinalParameter("depth_cutoff", depth_values, default=3.0),
            OrdinalParameter("confidence_threshold", confidence_values, default=10.0),
            BooleanParameter("so3_prealignment", default=True),
            BooleanParameter("open_loop", default=False),
            BooleanParameter("relocalisation", default=True),
            BooleanParameter("fast_odometry", default=False),
            BooleanParameter("frame_to_frame_rgb", default=False),
        ],
        name="elasticfusion",
    )


def elasticfusion_default_config() -> Configuration:
    """The ElasticFusion developers' default configuration (Table I, row 1)."""
    return elasticfusion_design_space().default_configuration()


def elasticfusion_objectives(accuracy_limit_m: float = ACCURACY_LIMIT_M) -> ObjectiveSet:
    """ElasticFusion objectives: mean ATE and frame runtime."""
    return ObjectiveSet(
        [
            Objective("mean_ate_m", minimize=True, unit="m", limit=accuracy_limit_m),
            Objective("runtime_s", minimize=True, unit="s/frame"),
        ]
    )


def table1_flag_columns(config: Dict[str, object]) -> Dict[str, int]:
    """Map a configuration onto the column convention used by Table I.

    The paper's table reports SO3 = 1 when pre-alignment is enabled,
    Close-Loops = the open-loop flag value, and the remaining flags directly.
    """
    return {
        "SO3": int(bool(config["so3_prealignment"])),
        "Close-Loops": int(bool(config["open_loop"])),
        "Reloc": int(bool(config["relocalisation"])),
        "Fast-Odom": int(bool(config["fast_odometry"])),
        "FTF RGB": int(bool(config["frame_to_frame_rgb"])),
    }


__all__ = [
    "ACCURACY_LIMIT_M",
    "kfusion_design_space",
    "kfusion_default_config",
    "kfusion_objectives",
    "elasticfusion_design_space",
    "elasticfusion_default_config",
    "elasticfusion_objectives",
    "table1_flag_columns",
]
