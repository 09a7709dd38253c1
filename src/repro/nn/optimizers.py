"""The Adam optimizer.

The paper uses Adam with learning rate 1e-4 and batch size 64
(Sec. IV-A).  The update follows Kingma & Ba 2015 with bias
correction; state is kept per parameter slot, indexed by position in
the parameter list, which is stable because architectures are fixed
during training.
"""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam with bias-corrected first/second moment estimates.

    ``step`` applies one in-place update per ``(parameter, gradient)``
    pair.
    """

    def __init__(
        self,
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got ({beta1}, {beta2})")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: "list[np.ndarray] | None" = None
        self._v: "list[np.ndarray] | None" = None

    def step(self, param_grad_pairs: "list[tuple[np.ndarray, np.ndarray]]") -> None:
        if self._m is None:
            self._m = [np.zeros_like(p) for p, _ in param_grad_pairs]
            self._v = [np.zeros_like(p) for p, _ in param_grad_pairs]
        assert self._v is not None
        if len(self._m) != len(param_grad_pairs):
            raise ValueError("parameter list changed between optimizer steps")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for m, v, (p, g) in zip(self._m, self._v, param_grad_pairs):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
