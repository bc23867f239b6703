"""Analytical device models standing in for the paper's hardware platforms.

The paper measures wall-clock frame times on an ODROID-XU3 (Mali-T628 GPU), an
ASUS T200TA (Intel HD graphics) and a desktop NVIDIA GTX 780 Ti, plus 83
crowd-sourced Android phones/tablets.  None of that hardware is available to a
pure-Python reproduction, so runtime is estimated with a roofline-style cost
model: each SLAM kernel contributes ``max(flops / throughput, bytes /
bandwidth) + launch overhead`` and the per-frame time is the sum over kernels.
The per-kernel work is an explicit function of the algorithmic parameters (see
:mod:`repro.slambench.workload`), which is what shapes the runtime side of the
performance/accuracy trade-off.
"""
