"""Freezing parameter partitions for the gradient-routing tests.

`train_step` updates each partition through its own optimizer in
`TrainState`; swapping in an optimizer whose step does nothing freezes that
partition while the rest of the step runs unchanged.
"""


class FrozenOptimizer:
    """Optimizer stand-in whose step leaves every parameter untouched."""

    def step(self, grads) -> None:
        pass


def freeze(state, *partitions: str):
    """Freeze the named partitions (extractor, projector, generator,
    classifier) of a TrainState; returns the state."""
    for name in partitions:
        if not hasattr(state, f"adam_{name}"):
            raise AttributeError(f"TrainState has no optimizer for partition {name!r}")
        setattr(state, f"adam_{name}", FrozenOptimizer())
    return state
