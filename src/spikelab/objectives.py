"""Loss surfaces: diagonal quadratics and two-layer tanh networks with MSE.

Both objective kinds expose the same surface: loss, gradient,
loss_and_gradient, and an exact Hessian-vector product; callers use these
methods directly. A one-parameter quadratic's loss and loss_and_gradient
also take a Python float point (the run loop's one-parameter path) and give
the bits of the one-element array. hvp_at(theta) returns an HVP closure at
one point, and hvp(theta, vec) is that closure called once. The FNN closure
keeps the factors that depend only on theta, 1 - H^2 among them, so many
products at one point (a probe's eigensolves, a dense Hessian's columns) pay
for one forward pass and one tanh derivative. An FNN objective owns one n x m work
buffer and one row-block scratch that its loss and gradient calls fill in
place: dZ overwrites H once dW2 has read it, as a closure's R(dZ) overwrites
R(H). Each FNN closure owns the buffers its products fill, so a closure
may run on one thread beside its objective's loss and gradient calls on
another. Every elementwise chain between two matrix products runs one block
of rows at a time, so a block's intermediates stay in cache for the whole
chain; the products and the column sums run on whole arrays, whose summation
order fixes the bits. The chains with outer products run under a smaller
ufunc buffer (OUTER_BUFSIZE), so numpy multiplies a broadcast column in
place instead of copying it. FNN derivatives are closed form (reverse mode
for the gradient, a forward-over-reverse sweep for the HVP) on one shared
forward pass, and the tests cross-check them against oracles.central_fd_hvp
and oracles.dense_hessian.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergedEvaluation
from .params import ParamVector
from .rngs import stream

FNN_MAX_ENTRIES = 10 ** 8  # per float64 array, 800 MB
BLOCK_ENTRIES = 16384  # entries per row block of an n x m chain, 128 KB of float64
# numpy's ufunc buffer size, in entries, inside the chains that form outer
# products. At numpy 2.4's default of 8192 the broadcast column r[:, None] is
# copied through the buffer whenever a row is shorter than about 2,000
# entries, which makes an outer product about 3x slower at fig6's width of
# 1000; at 1024 rows from about 600 entries are multiplied in place. The
# buffer size never changes an elementwise result.
OUTER_BUFSIZE = 1024

# === specs ==================================================================


@dataclass(frozen=True)
class QuadraticSpec:
    """L(theta) = 1/2 sum_i lambda_i (theta_i - offset_i)^2."""

    eigenvalues: tuple
    offset: tuple = None

    def __post_init__(self):
        eig = tuple(float(x) for x in np.atleast_1d(self.eigenvalues))
        if len(eig) < 1 or not all(math.isfinite(x) for x in eig):
            raise ConfigError("eigenvalues must be a nonempty finite sequence")
        object.__setattr__(self, "eigenvalues", eig)
        if self.offset is None:
            object.__setattr__(self, "offset", tuple(0.0 for _ in eig))
        else:
            off = tuple(float(x) for x in np.atleast_1d(self.offset))
            if len(off) != len(eig):
                raise ConfigError("offset length must match eigenvalues")
            object.__setattr__(self, "offset", off)


@dataclass(frozen=True)
class FnnTaskSpec:
    """Two-layer regression task: dataset shape, width, target family, seed."""

    input_dim: int
    width: int
    n_samples: int
    target: str
    noise_std: float = 0.0
    init_variance_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.width < 1 or self.n_samples < 1 or self.input_dim < 1:
            raise ConfigError("width, n_samples, input_dim must all be >= 1")
        n, m, d = self.n_samples, self.width, self.input_dim
        if max(n * d, n * m, m * d) > FNN_MAX_ENTRIES:
            raise ConfigError(f"n_samples, width and input_dim make an array (X, H or W1) "
                              f"above {FNN_MAX_ENTRIES} entries")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.init_variance_scale < 0:
            raise ConfigError("init_variance_scale (objective.init_scale) must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.target not in ("sine-mix", "linear-plus-diag-quadratic"):
            raise ConfigError(f"unknown target {self.target!r}")


# === objectives =============================================================


class QuadraticObjective:
    """Diagonal quadratic with exact constant Hessian.

    loss sums lam @ (d*d) and loss_and_gradient sums d @ (lam*d). They are
    equal in exact arithmetic but can round apart (not where every lam is
    1.0, as in the scalar presets). run records the start and last losses
    through loss and every other loss through loss_and_gradient, so changing
    either order alone moves figD12-gd-delay's trace bytes.

    Both also take a Python float point when param_dim is 1, the run loop's
    one-parameter path, and evaluate it in the same order on Python floats:
    lam * (d*d) and d * (lam*d). A one-element dot is its one product, so
    the float gives the bits of the one-element array.
    """

    kind = "quadratic"

    def __init__(self, spec: QuadraticSpec):
        self.spec = spec
        self.lam = np.array(spec.eigenvalues, dtype=float)
        self.off = np.array(spec.offset, dtype=float)
        self.param_dim = self.lam.size
        # lam and offset as Python floats, for a float point (param_dim 1)
        self._scalar = (*spec.eigenvalues, *spec.offset) if self.param_dim == 1 else None
        self.blocks = (("theta", 0, self.param_dim),)
        self.dataset = None

    def loss(self, theta: np.ndarray) -> float:
        if isinstance(theta, float):
            lam, off = self._scalar
            d = theta - off
            val = 0.5 * (lam * (d * d))
        else:
            d = np.asarray(theta, dtype=float) - self.off
            val = 0.5 * float(self.lam @ (d * d))
        if not math.isfinite(val):
            raise DivergedEvaluation("quadratic loss is non-finite")
        return val

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        g = self.lam * (np.asarray(theta, dtype=float) - self.off)
        if not np.isfinite(g).all():
            raise DivergedEvaluation("quadratic gradient is non-finite")
        return g

    def loss_and_gradient(self, theta):
        if isinstance(theta, float):
            lam, off = self._scalar
            d = theta - off
            g = lam * d
            val = 0.5 * (d * g)
        else:
            d = np.asarray(theta, dtype=float) - self.off
            g = self.lam * d
            val = 0.5 * float(d @ g)
        if not math.isfinite(val):  # a non-finite g_i makes d_i * g_i, so val, non-finite
            raise DivergedEvaluation("quadratic evaluation is non-finite")
        return val, g

    def hvp(self, theta, vec) -> np.ndarray:
        return self.hvp_at(theta)(vec)

    def hvp_at(self, theta):
        """Closure vec -> Hessian @ vec; the Hessian is diag(lambda) everywhere."""
        if not np.isfinite(theta).all():
            raise DivergedEvaluation("quadratic hvp point is non-finite")
        lam = self.lam
        return lambda vec: lam * vec

    def lambda_max(self) -> float:
        return float(self.lam.max())

    def initial_point(self, theta0) -> ParamVector:
        arr = np.atleast_1d(np.asarray(theta0, dtype=float))
        if arr.size == 1 and self.param_dim > 1:
            arr = np.full(self.param_dim, arr[0])
        if arr.size != self.param_dim:
            raise ConfigError("theta0 length does not match objective dimension")
        return ParamVector(arr, self.blocks)


class FnnObjective:
    """One hidden tanh layer, f(x) = W2 tanh(W1 x + b1) + b2, MSE loss.

    Parameters are flattened [W1, b1, W2, b2]. The dataset is drawn once at
    construction from the spec seed and frozen.
    """

    kind = "fnn-mse"

    def __init__(self, spec: FnnTaskSpec):
        self.spec = spec
        d, m = spec.input_dim, spec.width
        self.param_dim = m * d + m + m + 1
        self.blocks = (
            ("W1", 0, m * d),
            ("b1", m * d, m),
            ("W2", m * d + m, m),
            ("b2", m * d + 2 * m, 1),
        )
        self.X, self.y = _make_dataset(spec)
        self.dataset = (self.X, self.y)
        # one n x m work buffer that every loss and gradient call fills in
        # place (H, then dZ over it), so no call allocates (and page-faults
        # in) a fresh large array, and the row blocks each elementwise chain
        # walks, each with its view of one block-sized scratch. They make one
        # objective's loss and gradient unsafe to call from two threads at once.
        n = spec.n_samples
        self._work = np.empty((n, m))
        self._blocks = _row_blocks(n, m, 1)

    # --- forward / derivatives ---

    def _unpack(self, th):
        d, m = self.spec.input_dim, self.spec.width
        W1 = th[: m * d].reshape(m, d)
        b1 = th[m * d : m * d + m]
        W2 = th[m * d + m : m * d + 2 * m]
        b2 = th[-1]
        return W1, b1, W2, b2

    def _forward(self, theta, H):
        """(W2, e): output weights and residual f - y; fills H with the hidden
        activations tanh(X W1^T + b1)."""
        W1, b1, W2, b2 = self._unpack(np.asarray(theta, dtype=float))
        np.matmul(self.X, W1.T, out=H)
        for s, _ in self._blocks:
            h = H[s]
            np.add(h, b1, out=h)
            np.tanh(h, out=h)
        e = H @ W2 + b2 - self.y
        return W2, e

    def loss(self, theta) -> float:
        _, e = self._forward(theta, self._work)
        val = 0.5 * float(e @ e) / e.size
        if not math.isfinite(val):
            raise DivergedEvaluation("fnn loss is non-finite")
        return val

    def loss_and_gradient(self, theta):
        H = self._work
        W2, e = self._forward(theta, H)
        n, m = H.shape
        md = m * self.X.shape[1]
        r = e / n
        val = 0.5 * float(e @ e) / n
        g = np.empty(self.param_dim)
        np.matmul(H.T, r, out=g[md + m : md + 2 * m])  # dW2
        g[-1] = r.sum()  # db2
        # dZ = (r W2) * (1 - H^2), in this operand order; nothing reads H
        # after dW2, so each block of dZ replaces H's rows once T holds 1 - h^2
        dZ = H
        with np.errstate():
            np.setbufsize(OUTER_BUFSIZE)
            for s, T in self._blocks:
                dz = dZ[s]
                _one_minus_square(dz, T)
                np.multiply(r[s, None], W2[None, :], out=dz)
                np.multiply(dz, T, out=dz)
        np.matmul(dZ.T, self.X, out=g[:md].reshape(m, -1))  # dW1
        np.sum(dZ, axis=0, out=g[md : md + m])  # db1
        if not math.isfinite(val) or not np.isfinite(g).all():
            raise DivergedEvaluation("fnn evaluation is non-finite")
        return val, g

    def gradient(self, theta) -> np.ndarray:
        return self.loss_and_gradient(theta)[1]

    def hvp(self, theta, vec) -> np.ndarray:
        return self.hvp_at(theta)(vec)

    def hvp_at(self, theta):
        """Closure vec -> Hessian(theta) @ vec, by a forward-over-reverse sweep.

        The forward pass, the scaled residual r, the curvature factor
        2 (r W2) H and the tanh derivative S = 1 - H^2 depend only on theta;
        they are computed once here and kept by the closure, so each product
        reads S instead of recomputing it. Each closure owns an n x m buffer
        for R(H), whose rows R(dZ) overwrites one block at a time once the
        products that read R(H) have run, and two block scratches. It writes
        nothing its objective or another closure writes, so it may run on
        one thread while the objective's loss and gradient run on another;
        one closure is never called from two threads at once. Each call
        returns a fresh vector.
        """
        X = self.X
        n, m = self._work.shape
        md = m * X.shape[1]
        H, A2, S, RH = (np.empty((n, m)) for _ in range(4))
        blocks = _row_blocks(n, m, 2)
        W2, e = self._forward(theta, H)
        W2 = W2.copy()  # a view into theta; the closure must not follow later edits
        r = e / n
        with np.errstate():
            np.setbufsize(OUTER_BUFSIZE)
            for s, _, _ in blocks:
                a2 = A2[s]
                np.multiply(r[s, None], W2[None, :], out=a2)
                np.multiply(2.0, a2, out=a2)
                np.multiply(a2, H[s], out=a2)
                _one_minus_square(H[s], S[s])

        def hvp(vec):
            V1, c1, V2, c2 = self._unpack(np.asarray(vec, dtype=float))
            np.matmul(X, V1.T, out=RH)
            for s, _, _ in blocks:
                rh = RH[s]
                np.add(rh, c1, out=rh)
                np.multiply(S[s], rh, out=rh)
            Rr = (RH @ W2 + H @ V2 + c2) / n
            out = np.empty(self.param_dim)
            out[md + m : md + 2 * m] = H.T @ Rr + RH.T @ r
            out[-1] = Rr.sum()
            RdZ = RH  # R(H) is read in full; each block of R(dZ) replaces it
            with np.errstate():
                np.setbufsize(OUTER_BUFSIZE)
                for s, t, u in blocks:
                    rdz = RdZ[s]
                    np.multiply(A2[s], rdz, out=u)
                    np.multiply(Rr[s, None], W2[None, :], out=rdz)
                    np.multiply(r[s, None], V2[None, :], out=t)
                    np.add(rdz, t, out=rdz)
                    np.multiply(rdz, S[s], out=rdz)
                    np.subtract(rdz, u, out=rdz)
            np.matmul(RdZ.T, X, out=out[:md].reshape(m, -1))
            np.sum(RdZ, axis=0, out=out[md : md + m])
            if not np.isfinite(out).all():
                raise DivergedEvaluation("fnn hvp is non-finite")
            return out

        return hvp

    def initial_point(self) -> ParamVector:
        """Gaussian init, every block N(0, scale/width)."""
        rng = stream(self.spec.seed, "init")
        # abs() maps a validated -0.0 to 0.0: numpy refuses a negative-signed scale.
        sc = math.sqrt(abs(self.spec.init_variance_scale) / self.spec.width)
        vals = rng.normal(0.0, sc, size=self.param_dim)
        return ParamVector(vals, self.blocks)


def _row_blocks(n, m, k):
    """The row blocks an n x m elementwise chain walks: (rows, *views), the
    views the block's share of k block-sized scratch arrays."""
    rows = max(1, BLOCK_ENTRIES // m)
    scratch = np.empty((k, min(rows, n), m))
    return tuple((slice(i, i + rows), *scratch[:, : min(rows, n - i)])
                 for i in range(0, n, rows))


def _one_minus_square(h, out):
    """Fills out with 1 - h^2, as (1 - (h * h)); returns out."""
    np.multiply(h, h, out=out)
    return np.subtract(1.0, out, out=out)


def _make_dataset(spec: FnnTaskSpec):
    rng = stream(spec.seed, "dataset")
    if spec.target == "sine-mix":
        if spec.input_dim != 1:
            raise ConfigError("sine-mix target needs input_dim=1")
        X = rng.uniform(-np.pi, np.pi, size=(spec.n_samples, 1))
        y = np.sin(X[:, 0]) + np.sin(4.0 * X[:, 0])
    else:
        X = rng.standard_normal((spec.n_samples, spec.input_dim))
        wstar = rng.standard_normal(spec.input_dim)
        vstar = rng.standard_normal(spec.input_dim)
        y = X @ wstar + (X * X) @ vstar
    if spec.noise_std > 0:
        with np.errstate(over="ignore"):
            y = y + spec.noise_std * rng.standard_normal(spec.n_samples)
        if not np.isfinite(y).all():
            raise ConfigError("noise_std overflows the regression targets")
    return X, y


# === constructors ===========================================================


def make_quadratic(spec: QuadraticSpec) -> QuadraticObjective:
    return QuadraticObjective(spec)


def export_dataset_rows(obj):
    """Yield header + rows for dataset CSV exchange (x_0..x_{d-1}, y)."""
    if obj.dataset is None:
        raise ConfigError("objective has no dataset to export")
    X, y = obj.dataset
    yield [f"x_{j}" for j in range(X.shape[1])] + ["y"]
    for i in range(X.shape[0]):
        yield [repr(float(v)) for v in X[i]] + [repr(float(y[i]))]
