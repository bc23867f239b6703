"""SLAMBench-style benchmarking harness.

This subpackage plays the role SLAMBench plays in the paper: it exposes the
two applications' algorithmic design spaces and default configurations
(:mod:`repro.slambench.parameters`), runs a pipeline over the dataset and
collects the two performance metrics — absolute trajectory error and per-frame
runtime (:mod:`repro.slambench.runner`) — where the runtime comes from the
per-kernel workload model (:mod:`repro.slambench.workload`) evaluated on a
device model from :mod:`repro.devices`.
"""
