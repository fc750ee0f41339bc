"""PIM-aware graph transformations (the paper's core compiler passes).

* :mod:`repro.transform.passes` — the pass-manager core: the
  :class:`~repro.transform.passes.Pass` protocol, the pass registry,
  and the instrumenting/verifying
  :class:`~repro.transform.passes.PassManager` every transform entry
  point routes through.
* :mod:`repro.transform.split` — the multi-device parallelization pass:
  splits one PIM-candidate node into a GPU part and a PIM part (MD-DP).
* :mod:`repro.transform.pipeline` — the pipelining pass: splits a chain
  of nodes into pipeline-stage pieces whose execution overlaps across
  GPU and PIM.
* :mod:`repro.transform.patterns` — finds the pipelining candidate
  subgraphs (1x1-DW, DW-1x1, 1x1-DW-1x1 with interleaved elementwise
  ops).
* :mod:`repro.transform.memopt` — the memory-layout optimization:
  marks H-axis Slice/Concat (and Pad) nodes as zero-cost no-ops under
  the co-allocated NHWC layout.
* :mod:`repro.transform.fusion` — the inference front end: folds
  BatchNormalization into the preceding Conv and absorbs activations
  into the Conv/Gemm epilogue.

All passes are pure: they return a transformed clone and never mutate
their input graph (the :class:`~repro.transform.passes.PassManager`
enforces this clone discipline under ``--verify-passes``, and the test
suite asserts it for every registered pass).  Every pass is
semantics-preserving, which the test suite checks by executing original
and transformed graphs on the numpy reference and comparing outputs.
"""

from repro.transform.base import TransformError, UnsplittableError, conv_h_window
from repro.transform.split import apply_mddp, split_rows
from repro.transform.pipeline import pipeline_chain
from repro.transform.patterns import find_pipeline_candidates, PipelinePattern
from repro.transform.memopt import optimize_memory
from repro.transform.fusion import fuse, fold_batchnorm, fuse_activations
from repro.transform.cleanup import cleanup, eliminate_dead_nodes, fold_constants
from repro.transform.passes import (
    APPLY,
    CLEANUP,
    FUSE,
    PREPARE,
    PREPARE_PASSES,
    FunctionPass,
    Pass,
    PassContext,
    PassError,
    PassInfo,
    PassManager,
    PassPipeline,
    PassRecord,
    PassVerificationError,
    create_pass,
    pass_info,
    register_pass,
    registered_passes,
    run_pass,
    run_pipeline,
)

__all__ = [
    "TransformError",
    "UnsplittableError",
    "conv_h_window",
    "apply_mddp",
    "split_rows",
    "pipeline_chain",
    "find_pipeline_candidates",
    "PipelinePattern",
    "optimize_memory",
    "fuse",
    "fold_batchnorm",
    "fuse_activations",
    "cleanup",
    "eliminate_dead_nodes",
    "fold_constants",
    # Pass-manager core
    "Pass",
    "FunctionPass",
    "PassInfo",
    "PassContext",
    "PassRecord",
    "PassManager",
    "PassPipeline",
    "PassError",
    "PassVerificationError",
    "register_pass",
    "registered_passes",
    "pass_info",
    "create_pass",
    "run_pass",
    "run_pipeline",
    "CLEANUP",
    "FUSE",
    "PREPARE",
    "PREPARE_PASSES",
    "APPLY",
]
