"""Neural-network layers with exact analytic backprop.

Every layer implements ``forward(x, training)`` and ``backward(grad)``
where ``backward`` consumes the gradient of the loss with respect to
the layer output and returns the gradient with respect to the input,
accumulating parameter gradients in ``layer.grads``.  The test suite
checks every gradient against central finite differences
(``tests/gradcheck.py``).
``backward`` requires a preceding ``forward(..., training=True)``:
evaluation-mode forwards are an inference fast path that caches no
backward state (inputs, masks, argmaxes) at all.

Conventions: dense inputs are ``(N, features)``; convolutional inputs
are channels-first ``(N, C, H, W)`` (a phase-space histogram enters the
paper's CNN as ``(N, 1, n_v, n_x)``).

Inference determinism
---------------------
BLAS picks different micro-kernels (and therefore different summation
orders) depending on the row count of a matmul, so ``x[0:1] @ W`` is
*not* bitwise equal to row 0 of ``x @ W`` in general.  The batched
DL-PIC ensemble engine promises bitwise parity between a batch-``B``
run and ``B`` single runs, so evaluation-mode :class:`Dense` forwards
route every matmul through fixed-width row blocks of ``GEMM_BLOCK``
(padding short blocks with zero rows).  Every inference GEMM then uses
the identical kernel and reduction order regardless of the caller's
batch size, making each output row a function of its input row alone.
The padding is effectively free: a skinny ``(GEMM_BLOCK, F) @ (F, O)``
product is bound by streaming ``W`` from memory, which a 1-row product
pays in full anyway.

Evaluation dtype tier
---------------------
Training always runs in float64 (gradients are checked against central
finite differences at double precision).  Evaluation-mode forwards are
dtype-following instead: float32 inputs flow through float32 kernels
(the DL serving tier casts a frozen copy of the weights down, see
``repro.dlpic.DLFieldSolver``), everything else is coerced to float64
exactly as before.

Threading
---------
A DL-solve forward runs inside ``repro.kernels.blas.one_blas_thread``,
which holds numpy's BLAS to one thread, so the kernel pool of
``repro.kernels`` is the only set of compute threads in a DL step.
Inside that scope :func:`blocked_gemm` splits a wide layer's output
columns into one part per usable core on the pool, each a one-thread
BLAS call over every row block (``repro.kernels.blas.run_columns``
decides the parts); narrow layers, and every forward outside the
scope, run one call per row block on the calling thread, with BLAS's
own threads.  This is why ``repro.nn`` imports ``repro.kernels``.  A
column of a product depends only on its own weight column, so the
split keeps every bit.  A layer holds only its weights (and, after a
training forward, its backward cache), so one network can serve any
number of engines.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.kernels.blas import run_columns
from repro.nn.initializers import glorot_uniform


def _eval_dtype(x: np.ndarray) -> np.ndarray:
    """Evaluation coercion: float32 passes through, the rest to float64."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = np.asarray(x, dtype=np.float64)
    return x

# Fixed row-block width for evaluation-mode Dense matmuls (see module
# docstring).  16 matches the reference ensemble batch size, so a
# batch-16 DL sweep runs exact full blocks with zero padding waste.
GEMM_BLOCK = 16


def blocked_gemm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` computed in fixed ``GEMM_BLOCK``-row blocks.

    Row ``i`` of the result is bitwise identical for every possible row
    count of ``x`` (short final blocks are zero-padded up to the block
    width), which is what makes batched network inference reproduce
    single-run inference exactly.  Full blocks are written straight
    into the result without temporaries.  The output dtype follows the
    operands (float64 inputs keep the historical float64 GEMM bit for
    bit; the float32 serving tier runs single-precision BLAS blocks).
    Each block product covers the output columns ``run_columns`` hands
    it: all of them, or one part per core inside a DL-solve forward
    (see the module docstring).

    Applying the blocks to *every* evaluation matmul (not only the
    DL-ensemble path) trades ~1.5x on very large-batch products (the
    BLAS can no longer cache-block across thousands of rows) for
    predictions that are reproducible under any dataset chunking; the
    expensive training forwards keep the unblocked ``x @ W``.
    """
    n = x.shape[0]
    out = np.empty((n, w.shape[1]), dtype=np.promote_types(x.dtype, w.dtype))
    full = n - n % GEMM_BLOCK
    padded = None
    if full < n:
        padded = np.zeros((GEMM_BLOCK, x.shape[1]), dtype=x.dtype)
        padded[: n - full] = x[full:]

    def columns(lo: int, hi: int) -> None:
        part = w[:, lo:hi]
        for start in range(0, full, GEMM_BLOCK):
            stop = start + GEMM_BLOCK
            np.matmul(x[start:stop], part, out=out[start:stop, lo:hi])
        if padded is not None:
            out[full:, lo:hi] = np.matmul(padded, part)[: n - full]

    run_columns(columns, w.shape[1], w.shape[0])
    return out


class Layer:
    """Base class: parameter-free identity layer."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output (caching whatever backward needs)."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate ``dL/dy`` to ``dL/dx``; accumulate ``self.grads``."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Reset accumulated parameter gradients."""
        for key, g in self.grads.items():
            g[...] = 0.0

    @property
    def n_parameters(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(p.size for p in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError(f"invalid Dense shape ({in_features}, {out_features})")
        self.in_features = in_features
        self.out_features = out_features
        self.params = {
            "W": glorot_uniform((in_features, out_features), rng),
            "b": np.zeros(out_features, dtype=np.float64),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._x: "np.ndarray | None" = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            x = np.asarray(x, dtype=np.float64)
        else:
            x = _eval_dtype(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"Dense expected (N, {self.in_features}), got {x.shape}")
        if training:
            self._x = x
            return x @ self.params["W"] + self.params["b"]
        # Inference fast path: no backward cache, batch-size-invariant
        # fixed-width GEMM, bias added in place into the output buffer.
        self._x = None
        out = blocked_gemm(x, self.params["W"])
        out += self.params["b"]
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad, dtype=np.float64)
        self.grads["W"] += self._x.T @ grad
        self.grads["b"] += grad.sum(axis=0)
        return grad @ self.params["W"].T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.in_features}, {self.out_features})"


class ReLU(Layer):
    """Rectified linear activation (the paper's hidden activation)."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: "np.ndarray | None" = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training:
            x = _eval_dtype(x)
            self._mask = None
            return np.where(x > 0.0, x, 0.0)
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0.0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad, 0.0)


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: "tuple[int, ...] | None" = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64) if training else _eval_dtype(x)
        self._shape = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad, dtype=np.float64).reshape(self._shape)


class Conv2D(Layer):
    """2D convolution (cross-correlation), stride 1, zero padding.

    Kernel weights have shape ``(out_channels, in_channels, kh, kw)``.
    ``padding="same"`` preserves spatial size for odd kernels;
    ``padding="valid"`` applies none.  The forward pass uses
    ``sliding_window_view`` + ``tensordot`` (an im2col formulation
    without the explicit copy); the input gradient is computed as a
    full correlation with the flipped kernels, which keeps backward at
    the same BLAS-bound cost as forward.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: "int | tuple[int, int]" = 3,
        padding: str = "same",
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        kh, kw = kernel_size
        if kh < 1 or kw < 1 or in_channels < 1 or out_channels < 1:
            raise ValueError("invalid Conv2D configuration")
        if padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {padding!r}")
        if padding == "same" and (kh % 2 == 0 or kw % 2 == 0):
            raise ValueError("'same' padding requires odd kernel sizes")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.padding = padding
        self.params = {
            "W": glorot_uniform((out_channels, in_channels, kh, kw), rng),
            "b": np.zeros(out_channels, dtype=np.float64),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self._x_padded: "np.ndarray | None" = None
        self._x_shape: "tuple[int, ...] | None" = None

    def _pad_amounts(self) -> tuple[int, int]:
        if self.padding == "valid":
            return 0, 0
        kh, kw = self.kernel_size
        return kh // 2, kw // 2

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64) if training else _eval_dtype(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        kh, kw = self.kernel_size
        ph, pw = self._pad_amounts()
        if x.shape[2] + 2 * ph < kh or x.shape[3] + 2 * pw < kw:
            raise ValueError(f"input {x.shape} smaller than kernel {self.kernel_size}")
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
        if not training:
            # Inference fast path: no backward cache, and one tensordot
            # per sample so the underlying GEMM shape — hence the
            # floating-point reduction order — is identical for every
            # caller batch size (cf. the module docstring; the batch
            # dimension would otherwise fold into the GEMM rows).
            self._x_padded = None
            self._x_shape = None
            h_out = xp.shape[2] - kh + 1
            w_out = xp.shape[3] - kw + 1
            out = np.empty(
                (x.shape[0], self.out_channels, h_out, w_out),
                dtype=np.promote_types(x.dtype, self.params["W"].dtype),
            )
            for i in range(x.shape[0]):
                windows = sliding_window_view(xp[i], (kh, kw), axis=(1, 2))
                y = np.tensordot(windows, self.params["W"], axes=([0, 3, 4], [1, 2, 3]))
                out[i] = y.transpose(2, 0, 1)
            out += self.params["b"][None, :, None, None]
            return out
        self._x_padded = xp
        self._x_shape = x.shape
        # windows: (N, C, H_out, W_out, kh, kw)
        windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))
        y = np.tensordot(windows, self.params["W"], axes=([1, 4, 5], [1, 2, 3]))
        # y: (N, H_out, W_out, O) -> (N, O, H_out, W_out)
        y = np.ascontiguousarray(y.transpose(0, 3, 1, 2))
        return y + self.params["b"][None, :, None, None]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x_padded is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad, dtype=np.float64)
        kh, kw = self.kernel_size
        ph, pw = self._pad_amounts()
        xp = self._x_padded
        n, _, h_in, w_in = self._x_shape

        # dL/db
        self.grads["b"] += grad.sum(axis=(0, 2, 3))

        # dL/dW: correlate input windows with the output gradient.
        windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))
        # windows (N, C, Ho, Wo, kh, kw); grad (N, O, Ho, Wo)
        gw = np.tensordot(grad, windows, axes=([0, 2, 3], [0, 2, 3]))
        self.grads["W"] += gw  # (O, C, kh, kw)

        # dL/dx: full correlation of grad with flipped kernels.
        gp = np.pad(grad, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
        gwin = sliding_window_view(gp, (kh, kw), axis=(2, 3))
        w_flip = self.params["W"][:, :, ::-1, ::-1]
        gx_padded = np.tensordot(gwin, w_flip, axes=([1, 4, 5], [0, 2, 3]))
        gx_padded = gx_padded.transpose(0, 3, 1, 2)  # (N, C, Hp, Wp)
        if ph or pw:
            return np.ascontiguousarray(
                gx_padded[:, :, ph : ph + h_in, pw : pw + w_in]
            )
        return np.ascontiguousarray(gx_padded)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, padding={self.padding!r})"
        )


class MaxPool2D(Layer):
    """Non-overlapping max pooling (pool size = stride).

    Requires spatial dimensions divisible by the pool size (the paper's
    64x64 inputs halve cleanly twice).  Backward routes each gradient
    to the first-occurring maximum within its window (argmax), exactly
    matching the forward pass even under ties.
    """

    def __init__(self, pool_size: "int | tuple[int, int]" = 2) -> None:
        super().__init__()
        if isinstance(pool_size, int):
            pool_size = (pool_size, pool_size)
        if pool_size[0] < 1 or pool_size[1] < 1:
            raise ValueError(f"invalid pool size {pool_size}")
        self.pool_size = pool_size
        self._x_shape: "tuple[int, ...] | None" = None
        self._argmax: "np.ndarray | None" = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64) if training else _eval_dtype(x)
        if x.ndim != 4:
            raise ValueError(f"MaxPool2D expected (N, C, H, W), got {x.shape}")
        ph, pw = self.pool_size
        n, c, h, w = x.shape
        if h % ph or w % pw:
            raise ValueError(f"spatial size {(h, w)} not divisible by pool {self.pool_size}")
        blocks = x.reshape(n, c, h // ph, ph, w // pw, pw).transpose(0, 1, 2, 4, 3, 5)
        flat = blocks.reshape(n, c, h // ph, w // pw, ph * pw)
        if not training:
            # Inference: a plain max, no argmax routing table to keep.
            self._x_shape = None
            self._argmax = None
            return flat.max(axis=-1)
        self._x_shape = x.shape
        self._argmax = flat.argmax(axis=-1)
        return np.take_along_axis(flat, self._argmax[..., None], axis=-1)[..., 0]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x_shape is None or self._argmax is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad, dtype=np.float64)
        ph, pw = self.pool_size
        n, c, h, w = self._x_shape
        flat = np.zeros((n, c, h // ph, w // pw, ph * pw), dtype=np.float64)
        np.put_along_axis(flat, self._argmax[..., None], grad[..., None], axis=-1)
        blocks = flat.reshape(n, c, h // ph, w // pw, ph, pw).transpose(0, 1, 2, 4, 3, 5)
        return blocks.reshape(n, c, h, w)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MaxPool2D({self.pool_size})"
