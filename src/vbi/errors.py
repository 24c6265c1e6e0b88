"""Exception types shared across the library."""


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


class DegenerateAnsatzWarning(UserWarning):
    """The ansatz has (numerically) zero spread; variance-based utilities return 0."""
