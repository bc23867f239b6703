"""Golden metrics of the SLAM evaluator.

Pins the exact metric dictionaries that :class:`SlamBenchRunner` produces for
a handful of KFusion and ElasticFusion configurations on a tiny dataset, so a
change to a SLAM kernel (filters, scene SDF, ICP, surfel fusion) that moves
any metric by even one ulp fails here, in seconds, rather than only in the
end-to-end benchmark's history digests.

A change that is *meant* to move the metrics regenerates the digests with::

    PYTHONPATH=src python tests/test_slam_golden.py

and says why in its description.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.devices.catalog import get_device  # noqa: E402
from repro.slam.dataset import make_icl_nuim_like_dataset  # noqa: E402
from repro.slambench.parameters import elasticfusion_default_config, kfusion_default_config  # noqa: E402
from repro.slambench.runner import SlamBenchRunner  # noqa: E402

N_FRAMES, WIDTH, HEIGHT, DATASET_SEED = 6, 32, 24, 4

KFUSION_CASES: Dict[str, Dict[str, object]] = {
    "kf-default": {},
    "kf-coarse-ratio4": {"compute_size_ratio": 4, "volume_resolution": 64, "mu": 0.2},
    "kf-sparse-tracking": {"tracking_rate": 2, "integration_rate": 3, "icp_threshold": 1e-3},
    "kf-thin-band": {"mu": 0.025, "volume_resolution": 128, "pyramid_iterations_0": 4},
    "kf-fine-level-only": {"pyramid_iterations_1": 0, "pyramid_iterations_2": 0, "integration_rate": 1},
    "kf-lazy": {"tracking_rate": 5, "integration_rate": 5, "compute_size_ratio": 8, "mu": 0.5},
}

ELASTICFUSION_CASES: Dict[str, Dict[str, object]] = {
    "ef-default": {},
    "ef-fast-open-loop": {"fast_odometry": True, "open_loop": True, "so3_prealignment": False},
    "ef-rgb-heavy": {"icp_rgb_weight": 0.5, "depth_cutoff": 1.5, "confidence_threshold": 3.0, "frame_to_frame_rgb": True},
}

#: sha256 of ``json.dumps(metrics, sort_keys=True)`` per case.
GOLDEN: Dict[str, str] = {
    "kf-default": "6bc2348c04e83bd933cf2aa063563acaa0e1b2a1ea5e17d06e83e42df3ef85a6",
    "kf-coarse-ratio4": "c2cdebda2f706e1dee37f8671a09f63020adcde8f0a34ef0181494bac2945eff",
    "kf-sparse-tracking": "0d0d825e48518dbbdb8fd65ef748c9ca06b224ecfa10913ba6f9b8d4c47cedca",
    "kf-thin-band": "8697c4607820b60f3eed6bf84e4d90c64021cc75a98556d5eced048f348ef1ad",
    "kf-fine-level-only": "1aea8e2a123e6450db0e4c8e44419fd1c44ac82e97c2f8223e9ac9a7ac1323d4",
    "kf-lazy": "6e7392548b768a94a1a0c8861e1266ca3a42524c570da102110840bac41e63a7",
    "ef-default": "3d9b4d3ee1b62c9aec86bca20af911ea29eeed9031868c3a08daf69375b4bcdf",
    "ef-fast-open-loop": "f3b1ee71081d17fa431853edc3a558bf5c5450eff9a5d278a51dd026cad74446",
    "ef-rgb-heavy": "575d88a009f0c5bb6ab9a56d38069876a6e3b79ca7610a9db061d475425e143f",
}


def _metrics_digest(metrics: Dict[str, float]) -> str:
    return hashlib.sha256(json.dumps(metrics, sort_keys=True).encode()).hexdigest()


def compute_digests() -> Dict[str, str]:
    """Every case's metric digest, in case order."""
    dataset = make_icl_nuim_like_dataset(n_frames=N_FRAMES, width=WIDTH, height=HEIGHT, seed=DATASET_SEED)
    kfusion = SlamBenchRunner("kfusion", n_frames=N_FRAMES, dataset=dataset)
    elasticfusion = SlamBenchRunner(
        "elasticfusion", n_frames=N_FRAMES, dataset=dataset, elasticfusion_kwargs={"fusion_stride": 2}
    )
    digests: Dict[str, str] = {}
    for name, overrides in KFUSION_CASES.items():
        config = {**kfusion_default_config(), **overrides}
        digests[name] = _metrics_digest(kfusion.evaluate(config, get_device("odroid-xu3")))
    for name, overrides in ELASTICFUSION_CASES.items():
        config = {**elasticfusion_default_config(), **overrides}
        digests[name] = _metrics_digest(elasticfusion.evaluate(config, get_device("gtx-780ti")))
    return digests


@pytest.fixture(scope="module")
def digests() -> Dict[str, str]:
    return compute_digests()


@pytest.mark.parametrize("case", [*KFUSION_CASES, *ELASTICFUSION_CASES])
def test_metrics_match_golden(digests, case):
    assert digests[case] == GOLDEN[case], f"{case}: SLAM metrics moved"


if __name__ == "__main__":
    for name, digest in compute_digests().items():
        print(f'    "{name}": "{digest}",')
