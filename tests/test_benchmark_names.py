"""The benchmark wraps package functions by name; every name it wraps must
still be a function, or its traced run fails after tier-1 has passed."""

from pathlib import Path

from treefuse import autodiff

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_benchmark_wraps_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import speed
    import tracing

    targets = [(owner, attr) for owner, attr, _ in tracing.TARGETS]
    targets += [(autodiff.Tape, "record"), *speed.TICK_TARGETS]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"the benchmark wraps missing names {missing}"
