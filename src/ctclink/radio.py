"""Radio propagation: log-distance pathloss, correlated shadowing, the
energy-detection register map, and the dBm-to-milliwatt conversion.

Power bookkeeping is in dBm throughout; powers add in linear milliwatt
space.  The ED register map is anchored at measured calibration points and
interpolated piecewise between them, because the three anchors do not lie
on one line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# thermal noise over 20 MHz plus the 6 dB receiver noise figure
NOISE_FLOOR_DBM = -95.0
# weakest receive power at which CTC frames decode reliably
SENSITIVITY_DBM = -77.0
DEFAULT_TX_POWER_DBM = 20.0

# register -> dBm calibration anchors of the modeled NIC
ED_REGISTER_ANCHORS: dict[int, float] = {3: -92.0, 23: -77.0, 28: -62.0}
# distance at which shadowing decorrelates to 1/e
SHADOWING_DECORRELATION_M = 10.0


def map_ed_register(theta: int) -> float:
    """ED threshold in dBm for register value ``theta``.

    Piecewise-affine between the ED_REGISTER_ANCHORS; each segment is
    dBm = a*theta + b.  Values outside the anchored domain are a
    configuration error.
    """
    table = sorted(ED_REGISTER_ANCHORS.items())
    regs = [t for t, _ in table]
    if not regs[0] <= theta <= regs[-1]:
        raise ValueError(f"register {theta} outside calibrated domain [{regs[0]}, {regs[-1]}]")
    for (t0, v0), (t1, v1) in zip(table, table[1:]):
        if theta <= t1:
            a = (v1 - v0) / (t1 - t0)
            return v0 + a * (theta - t0)
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class PathlossModel:
    """Log-distance pathloss PL(d) = ref_loss_db + 10*exponent*log10(d).

    Defaults give a -77 dBm decode radius of about 41 m from a 20 dBm
    transmitter, which reproduces the desk-scale multicell geometry.
    """

    ref_loss_db: float = 46.4  # loss at 1 m, roughly free space at 5.2 GHz
    exponent: float = 3.13

    def loss_db(self, distance_m):
        d = np.asarray(distance_m, dtype=float)
        if np.any(d <= 0):
            raise ValueError("distance must be positive")
        out = np.log10(d)
        out *= 10.0 * self.exponent
        out += self.ref_loss_db
        return float(out) if np.isscalar(distance_m) else out


@dataclass
class RadioLink:
    """One LTE-U source as seen by a WiFi receiver.

    The ED threshold may be given in dBm or as a register value; exactly
    the resolved dBm figure is used by the sampler.
    """

    distance_m: float
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    pathloss: PathlossModel = field(default_factory=PathlossModel)
    ed_threshold_dbm: float | None = None
    ed_register: int | None = None

    def __post_init__(self) -> None:
        if self.ed_threshold_dbm is None:
            reg = 28 if self.ed_register is None else self.ed_register
            self.ed_threshold_dbm = map_ed_register(reg)

    def mean_rx_dbm(self) -> float:
        return self.tx_power_dbm - self.pathloss.loss_db(self.distance_m)

    @classmethod
    def at_rx_power(cls, rx_dbm: float, **kwargs) -> "RadioLink":
        """Link whose mean receive power equals ``rx_dbm`` exactly.

        Sweeps are specified in receive power; this inverts the pathloss
        to the matching distance.
        """
        pl = kwargs.pop("pathloss", PathlossModel())
        tx = kwargs.pop("tx_power_dbm", DEFAULT_TX_POWER_DBM)
        loss = tx - rx_dbm
        d = 10 ** ((loss - pl.ref_loss_db) / (10.0 * pl.exponent))
        return cls(distance_m=d, tx_power_dbm=tx, pathloss=pl, **kwargs)


def dbm_to_mw(dbm):
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0)


def _pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """(n, n) Euclidean distances between the rows of an (n, 2) array.

    sqrt(dx*dx + dy*dy), squared and summed in place so that only two
    (n, n) arrays are alive at once.
    """
    dx = np.subtract.outer(coords[:, 0], coords[:, 0])
    dy = np.subtract.outer(coords[:, 1], coords[:, 1])
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


class ShadowingField:
    """Spatially correlated log-normal shadowing, one layer per source.

    Anchor values are drawn with exponential (Gudmundson) correlation
    exp(-d / SHADOWING_DECORRELATION_M) on a grid of half that spacing and
    interpolated bilinearly, so all evaluations within one run share a
    consistent field.
    """

    def __init__(
        self,
        sigma_db: float,
        n_sources: int,
        bounds: tuple[float, float, float, float],
        rng: np.random.Generator | None = None,
    ) -> None:
        if not (math.isfinite(sigma_db) and sigma_db >= 0):
            raise ValueError(f"sigma {sigma_db:g} dB must be finite and non-negative")
        self.sigma_db = sigma_db
        xmin, xmax, ymin, ymax = bounds
        step = SHADOWING_DECORRELATION_M / 2.0
        self._xs = np.arange(xmin - step, xmax + 2 * step, step)
        self._ys = np.arange(ymin - step, ymax + 2 * step, step)
        nx, ny = len(self._xs), len(self._ys)
        if sigma_db == 0:
            self._values = np.zeros((nx, ny, n_sources))
            return
        if rng is None:
            raise ValueError("correlated field needs a random generator")
        gx, gy = np.meshgrid(self._xs, self._ys, indexing="ij")
        coords = np.column_stack([gx.ravel(), gy.ravel()])
        # sigma^2 exp(-d / SHADOWING_DECORRELATION_M), built in the distance array
        cov = _pairwise_distances(coords)
        np.negative(cov, out=cov)
        cov /= SHADOWING_DECORRELATION_M
        np.exp(cov, out=cov)
        cov *= sigma_db**2
        cov[np.diag_indices_from(cov)] += 1e-9  # numerical jitter for the factorization
        chol = np.linalg.cholesky(cov)
        del cov
        draws = chol @ rng.standard_normal((len(coords), n_sources))
        self._values = draws.reshape(nx, ny, n_sources)

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """(n_points, n_sources) shadowing in dB at arbitrary locations.

        A point outside the anchor grid takes the value at the nearest point
        of the grid's edge, so the field stays within its anchors' range.
        The four weighted corners are summed into the first one gathered.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        px = np.clip(pts[:, 0], self._xs[0], self._xs[-1])
        py = np.clip(pts[:, 1], self._ys[0], self._ys[-1])
        ix = np.clip(np.searchsorted(self._xs, px) - 1, 0, len(self._xs) - 2)
        iy = np.clip(np.searchsorted(self._ys, py) - 1, 0, len(self._ys) - 2)
        x0, x1 = self._xs[ix], self._xs[ix + 1]
        y0, y1 = self._ys[iy], self._ys[iy + 1]
        wx = ((px - x0) / (x1 - x0))[:, None]
        wy = ((py - y0) / (y1 - y0))[:, None]
        # v00 ux uy + v10 wx uy + v01 ux wy + v11 wx wy, summed left to right
        ux, uy = 1 - wx, 1 - wy
        out = self._values[ix, iy]
        out *= ux
        out *= uy
        for dx, dy, weight_x, weight_y in ((1, 0, wx, uy), (0, 1, ux, wy), (1, 1, wx, wy)):
            corner = self._values[ix + dx, iy + dy]
            corner *= weight_x
            corner *= weight_y
            out += corner
        return out
