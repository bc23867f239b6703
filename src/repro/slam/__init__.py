"""Dense SLAM substrate: the applications whose algorithmic parameters are tuned.

The paper evaluates HyperMapper on two dense SLAM pipelines run through the
SLAMBench framework:

* **KinectFusion** (KFusion): voxel-grid TSDF mapping with ICP tracking
  (:mod:`repro.slam.kfusion`),
* **ElasticFusion**: surfel-based mapping with joint geometric/photometric
  tracking and loop-closure handling (:mod:`repro.slam.elasticfusion`).

Everything the pipelines need is implemented here from scratch: SE(3)
geometry, a pinhole camera model, analytic signed-distance-function scenes
standing in for the ICL-NUIM living-room dataset, a Kinect-style depth noise
model, bilateral filtering and image pyramids, ICP against a signed-distance
map, a dense TSDF voxel volume with raycasting, a surfel map, and
trajectory-error metrics.
"""
