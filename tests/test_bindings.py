"""The benchmark's tracer (perfbench/tracing.py) wraps program attributes by
name: each one it binds must exist, and each must come back when it leaves."""

import os

import pytest

from serialcast import autodiff, backbone, cli, dataloader, inference, objectives, trainer

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
OWNERS = (autodiff, autodiff.Tensor, backbone, cli, dataloader, dataloader.ShardQueue,
          dataloader.WindowSampler, inference, objectives, trainer)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def _attributes() -> dict[tuple[str, str], object]:
    return {(owner.__name__, name): value
            for owner in OWNERS for name, value in vars(owner).items()}


def test_instrumented_restores_every_binding(tracing):
    before = _attributes()
    with tracing.instrumented(tracing.Tracer()):
        inside = _attributes()
    after = _attributes()
    wrapped = {key for key, value in inside.items() if before.get(key) is not value}
    spans = {(owner.__name__, attr) for owner, attr, _ in tracing.SPANS}
    assert spans <= wrapped
    assert {("ShardQueue", "get"), ("Tensor", "__init__")} <= wrapped
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
