"""Exception types shared across the library, and the field check of its JSON inputs."""

_JSON_KINDS = {float: "a number", int: "an integer", list: "a list", dict: "an object"}


def json_field(obj: dict, key: str, kind=float):
    """``obj[key]`` of a parsed JSON file, or a ValueError naming ``key`` if it is not a
    ``kind``: float (any number, returned as a float), int, list or dict; bools are none."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"field {key!r} is not {_JSON_KINDS[kind]}: {type(value).__name__}")
    return float(value) if kind is float else value


class NumericOverflowError(ArithmeticError):
    """A flow layer produced a non-finite intermediate.

    Attributes:
        layer: index of the offending layer ("affine" for the final affine map).
    """

    def __init__(self, layer):
        self.layer = layer
        super().__init__(f"non-finite value in flow layer {layer}")


class ModelError(ValueError):
    """A likelihood model produced an invalid probability for the supplied inputs."""


class TrainingDiverged(RuntimeError):
    """Training aborted because the smoothed ELBO fell far below the best
    smoothed ELBO of the run.

    Attributes:
        trace: the partial TrainTrace accumulated before the abort.
    """

    def __init__(self, step: int, elbo: float, trace=None):
        self.step = step
        self.elbo = elbo
        self.trace = trace
        super().__init__(f"ELBO diverged at step {step}: {elbo:.6g}")
