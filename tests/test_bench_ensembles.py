"""The benchmark's ensembles are pinned: each workload's trees at seed 1,
grown from the benchmark's own inputs, keep their serialized digest. A
change to tree growing that moves any node of any tree fails here, in
tier-1, instead of in a benchmark run."""

from pathlib import Path

import pytest

from treefuse import trees

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1
ENSEMBLE_SHA256 = {
    "lift": "0d06bf58309d8b168801ed384e31e354e841ca2c78f655bf2e2442c0bc2fc8a2",
    "long_text": "27a8d8eba655ab4499aca4c9f33f9e18ab5d94dabda475c8121f4f99131d0815",
    "wide_tabular": "050a3d2d9820ef33fe7a0e7d3062a50349c92ea897a27a8c7b163eaf063b3f17",
}


@pytest.mark.parametrize("name", sorted(ENSEMBLE_SHA256))
def test_bench_ensemble_digest_is_pinned(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pipeline
    import tracing

    workload = pipeline.WORKLOADS[name]
    paths = pipeline.generate(workload, SEED, str(tmp_path))
    inputs = pipeline.setup(workload, paths, SEED, tracing.NullTracer())
    ensemble = trees.train_ensemble(inputs.rows["train"], inputs.targets["train"])
    assert trees.ensemble_sha256(ensemble) == ENSEMBLE_SHA256[name]
