"""Synthetic cohorts, fundus-like rasters, trajectories, preprocessing,
and the CSV/PGM interchange formats.

Generation is a pure function of (spec, seed). Patient i draws from its
own stream (seed, "patient/<i>") and its visit v from (seed,
"visit/<i>/<v>"), so tables regenerate bit-for-bit in any order and any
blocking. A patient's stream always makes 8 draws and a visit's 3, so a
block of patients is drawn column-wise: one rng.Streams over the block's
patients, then one over their visits. Trajectories are drawn the same way,
one stream per seed. The latent model ties everything together: a risk
score z drives severity s = 0.8*z, field loss md = -2 - 8*s, structural features track s,
and the screening label is 1 iff z (plus a per-patient ambiguity term) is
positive, then flipped with probability label_noise. Tables are read
RASTER_READ rasters at a time, and no call that makes or reduces rasters
(generate_images, model.patch_stats) is handed more: that is the one bound.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.ndimage import uniform_filter
from scipy.special import ndtri

from .errors import ConfigError, DataError, SchemaError, refusal
from .metrics import eligibility_filter, ols_slope
from .numerics import in_halves
from .rng import Streams

GROUPS = ("Asian", "Black", "White")

_RECORD = object()


class Column(NamedTuple):
    """One CohortTable column: a numpy dtype, or list for a Python list; its
    cohort.csv header and the parser of a column of its cells, if the file
    carries it; and each row's value in a table built without it. A _RECORD
    column must be given (slope_target is derived when it is not)."""
    dtype: type
    header: str | None = None
    parse: Callable[[Sequence[str]], list] | None = None
    fill: object = _RECORD


def _parse_ints(cells) -> list[int]:
    return list(map(int, cells))


def _parse_floats(cells) -> list[float]:
    """Finite floats; an empty cell is missing (NaN)."""
    out = [float(c) if c else math.nan for c in cells]
    if not all(math.isfinite(v) for v, c in zip(out, cells) if c):
        raise ValueError("values are finite")
    return out


def _parse_labels(cells) -> list[int]:
    if not set(cells) <= {"0", "1"}:
        raise ValueError("labels are 0 or 1")
    return list(map(int, cells))


# The cohort schema, in cohort.csv column order. The slope target is derived
# (assign_slope_targets); img_severity and image_seed are the generator
# latents; rasters are attached in memory.
COLUMNS = {
    "patient_id": Column(list, "patient_id", list),
    "visit_index": Column(np.int64, "visit_index", _parse_ints),
    "visit_time": Column(np.float64, "visit_time_years", _parse_floats),
    "age": Column(np.float64, "age", _parse_floats),
    "sex": Column(list, "sex", list),
    "race": Column(list, "race", list),
    "rnflt": Column(np.float64, "rnflt_um", _parse_floats),
    "iop": Column(np.float64, "iop_mmhg", _parse_floats),
    "cdr": Column(np.float64, "cdr", _parse_floats),
    "md": Column(np.float64, "md_db", _parse_floats),
    "label": Column(np.int64, "label", _parse_labels),
    "image_path": Column(list, "image_path", list, fill=None),
    "slope_target": Column(np.float64),
    "img_severity": Column(np.float64, fill=np.nan),
    "image_seed": Column(np.uint64, fill=0),
    "rasters": Column(list, fill=None),
}
_CSV_COLUMNS = {name: c for name, c in COLUMNS.items() if c.header}
CSV_HEADER = [c.header for c in _CSV_COLUMNS.values()]

CONTINUOUS_FEATURES = ("rnflt_um", "iop_mmhg", "cdr", "age")
CATEGORICAL_FEATURES = ("sex", "race")
_COLUMN_OF = {c.header: name for name, c in _CSV_COLUMNS.items()}

IMAGE_SIZE = 64

# latent-model constants
_MD_PER_SEVERITY = 8.0       # md = -2 - 8*s
_SEVERITY_PER_Z = 0.8        # s = 0.8*z
_LABEL_AMBIGUITY_STD = 0.2   # per-patient fuzz between severity and label
_MD_OBS_STD = 0.35
_STRUCTURE_STD = (2.5, 1.5, 0.02)   # rnflt, iop, cdr


# key -> (whether a value is allowed, what the key must be), for CohortSpec,
# its visit range as VISIT_KEYS and each group_mix value, and the trajectories
VISIT_KEYS = ("visits_min", "visits_max")
DATA_BOUNDS = {
    "n_patients": (lambda v: v >= 1, "be >= 1"),
    **dict.fromkeys(VISIT_KEYS, (lambda v: v >= 1, "be >= 1")),
    "group_mix": (lambda v: v >= 0.0, "be >= 0"),
    "prevalence": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "label_noise": (lambda v: 0.0 <= v < 0.5, "lie in [0, 0.5)"),
    "n_visits": (lambda v: v >= 4, "be >= 4"),
}


@dataclass(frozen=True)
class CohortSpec:
    n_patients: int = 2000
    visits_per_patient: tuple[int, int] = (4, 8)
    group_mix: dict[str, float] = field(
        default_factory=lambda: {g: 1.0 / 3.0 for g in GROUPS}
    )
    prevalence: float = 0.35
    age_effect: float = 0.5           # risk-logit slope per decade of age
    group_shift: dict[str, float] = field(
        default_factory=lambda: {g: 0.0 for g in GROUPS}
    )
    label_noise: float = 0.05
    seed: int = 20240601

    def __post_init__(self):
        lo, hi = self.visits_per_patient
        if reason := refusal({**vars(self), "visits_min": lo, "visits_max": hi},
                             DATA_BOUNDS):
            raise ConfigError(reason)
        if hi < lo:
            raise ConfigError(f"'visits_max' must be >= 'visits_min', got {hi} < {lo}")
        if abs(sum(self.group_mix.values()) - 1.0) > 1e-9:
            raise ConfigError("'group_mix' fractions must sum to 1")
        if unknown := sorted(self.group_shift.keys() - self.group_mix.keys()):
            raise ConfigError(f"'group_shift' names groups {unknown} not in 'group_mix'")


def default_cohort_spec(**overrides) -> CohortSpec:
    """Cohort with one subgroup pushed toward the decision boundary (Black),
    one pushed away (Asian); drives both the selective-prediction and
    fairness experiments."""
    names = {f.name for f in fields(CohortSpec)}
    if unknown := [k for k in overrides if k not in names]:
        raise ConfigError(f"unknown CohortSpec field '{unknown[0]}'")
    return CohortSpec(**{"group_shift": {"Asian": 0.5, "Black": -0.5, "White": 0.0},
                         **overrides})


RASTER_READ = 32   # rasters per table read and per call: 1 MB of 64x64 float64


def _dims(shape) -> str:
    return "x".join(str(d) for d in shape)


class CohortTable:
    """Columnar visits table. A row's raster resolves from storage, file
    path, or the generator latents, in that order; raster_stack reads many
    rows at once, and raster_blocks reads the whole table a block at a time."""

    def __init__(self, columns: dict):
        """columns maps names of COLUMNS to one value per row."""
        n = len(columns["patient_id"])
        derive = "slope_target" not in columns
        if derive:
            columns = {**columns, "slope_target": np.full(n, np.nan)}
        for name, column in COLUMNS.items():
            value = columns[name] if column.fill is _RECORD \
                else columns.get(name, [column.fill] * n)
            setattr(self, name, value if column.dtype is list
                    else np.asarray(value, dtype=column.dtype))
        if derive:
            assign_slope_targets(self)

    def __len__(self) -> int:
        return len(self.patient_id)

    def sample_ids(self) -> list[str]:
        return [f"{p}#{v}" for p, v in zip(self.patient_id, self.visit_index)]

    def raster(self, i: int) -> np.ndarray:
        return self.raster_stack([i])[0]

    def raster_stack(self, indices, shape=None) -> np.ndarray:
        """(len(indices), H, W) rasters of the given rows: attached rasters
        as they are, PGM files one by one, and generated rows through one
        generate_images call. Every raster must have the given shape, or
        without one the first raster's: a raster of another shape raises a
        DataError naming its source and both shapes."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        stack: list[np.ndarray | None] = [None] * idx.size
        generated = []
        for j, i in enumerate(idx):
            if self.rasters[i] is not None:
                stack[j] = np.asarray(self.rasters[i])
            elif self.image_path[i]:
                stack[j] = load_image_pgm(self.image_path[i])
            elif np.isnan(self.img_severity[i]):
                raise DataError(f"sample {i} has no image source")
            else:
                generated.append(j)
        rows = idx[generated]
        images = generate_images(self.img_severity[rows], self.image_seed[rows])
        for j, image in zip(generated, images):
            stack[j] = image
        want = tuple(shape) if shape is not None else stack[0].shape if stack else None
        for j, raster in enumerate(stack):
            if raster.shape != want:
                i = idx[j]
                source = self.image_path[i] if self.rasters[i] is None \
                    and self.image_path[i] else f"the raster of sample {i}"
                raise DataError(f"{source}: raster is {_dims(raster.shape)}, but "
                                f"the first raster read is {_dims(want)}")
        return images if len(generated) == idx.size else np.stack(stack)

    def raster_blocks(self):
        """(start, rasters) for the table's rows in order, RASTER_READ rows
        per raster_stack read, so a reader holds at most RASTER_READ rasters;
        every raster must have the first raster's shape."""
        shape = None
        for start in range(0, len(self), RASTER_READ):
            rasters = self.raster_stack(range(start, min(start + RASTER_READ, len(self))),
                                        shape)
            shape = rasters.shape[1:]
            yield start, rasters

    def subset(self, indices) -> "CohortTable":
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        columns = {}
        for name, column in COLUMNS.items():
            values = getattr(self, name)
            columns[name] = [values[i] for i in idx] if column.dtype is list \
                else values[idx]
        return CohortTable(columns)

    @classmethod
    def concat(cls, tables) -> "CohortTable":
        """The rows of the given tables, in order."""
        return cls({name: [v for t in tables for v in getattr(t, name)]
                    if column.dtype is list
                    else np.concatenate([getattr(t, name) for t in tables])
                    for name, column in COLUMNS.items()})


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _structure(s, eps, stds) -> dict[str, np.ndarray]:
    """The OCT and IOP columns at severities s, each clipped to its range,
    with noise eps[:, k] * stds[k]."""
    return {"rnflt": np.clip(95.0 - 25.0 * s + eps[:, 0] * stds[0], 30.0, 140.0),
            "iop": np.clip(16.0 + 3.0 * s + eps[:, 1] * stds[1], 6.0, 45.0),
            "cdr": np.clip(0.3 + 0.25 * s + eps[:, 2] * stds[2], 0.05, 0.98)}


_PATIENT_BLOCK = 4096   # patients drawn at a time


def generate_cohort(spec: CohortSpec) -> CohortTable:
    """Synthetic multi-visit cohort, reproducible from spec.seed."""
    groups = sorted(spec.group_mix)
    mean_shift = float(sum(spec.group_mix[g] * spec.group_shift.get(g, 0.0)
                           for g in groups))
    # age ~ U(30, 90) contributes variance 3 * age_effect^2 to the risk logit
    sigma_eff = math.sqrt(1.0 + 3.0 * spec.age_effect ** 2)
    z0 = sigma_eff * float(ndtri(spec.prevalence)) - mean_shift
    blocks = [_cohort_block(spec, groups, z0,
                            range(start, min(start + _PATIENT_BLOCK, spec.n_patients)))
              for start in range(0, spec.n_patients, _PATIENT_BLOCK)]
    return blocks[0] if len(blocks) == 1 else CohortTable.concat(blocks)


def _cohort_block(spec: CohortSpec, groups: list[str], z0: float,
                  ids: range) -> CohortTable:
    """The visits of patients ids, drawn column-wise."""
    rp = Streams(spec.seed, [f"patient/{i}" for i in ids])
    group = rp.choice([spec.group_mix[g] for g in groups])
    age0 = 30.0 + 60.0 * rp.uniform()
    eta = rp.normal()
    omega = rp.normal() * _LABEL_AMBIGUITY_STD
    female = rp.uniform() < 0.5
    vmin, vmax = spec.visits_per_patient
    n_visits = rp.integers(vmin, vmax + 1)
    # a patient's n - 1 gaps are the first lanes of one fill of max(vmax - 1, 1)
    gaps = 0.4 + 0.4 * rp.uniform(max(vmax - 1, 1))
    slope_eps = rp.normal()

    shift = np.array([spec.group_shift.get(g, 0.0) for g in groups], dtype=np.float64)
    z = z0 + spec.age_effect * (age0 - 60.0) / 10.0 + shift[group] + eta
    s0 = _SEVERITY_PER_Z * z
    md0 = -2.0 - _MD_PER_SEVERITY * s0
    slope = np.clip(-(0.05 + 0.25 * np.maximum(s0, 0.0)) + slope_eps * 0.08, -2.0, 0.3)

    # one row per visit, patient by patient; a patient's visit times are the
    # running sum of its gaps, in visit order
    patient = np.repeat(np.arange(len(ids)), n_visits)
    visit = np.arange(patient.size) - (np.cumsum(n_visits) - n_visits)[patient]
    times = np.zeros((len(ids), n_visits.max()))
    np.cumsum(gaps[:, : times.shape[1] - 1], axis=1, out=times[:, 1:])
    times = times[np.arange(times.shape[1]) < n_visits[:, None]]

    # each visit's stream draws its noise, its label flip, its image seed
    rv = Streams(spec.seed, [f"visit/{i}/{v}" for i, k in zip(ids, n_visits.tolist())
                             for v in range(k)])
    eps = rv.normal(4)
    flip = rv.uniform() < spec.label_noise
    image_seed = rv.next_u64()
    md_lat = md0[patient] + slope[patient] * times
    s = (-2.0 - md_lat) / _MD_PER_SEVERITY
    pids = [f"P{i:05d}" for i in ids]
    return CohortTable({
        "patient_id": [pids[p] for p in patient.tolist()],
        "visit_index": visit, "visit_time": times, "age": age0[patient] + times,
        "sex": [("M", "F")[f] for f in female[patient].tolist()],
        "race": [groups[g] for g in group[patient].tolist()],
        **_structure(s, eps, _STRUCTURE_STD),
        "md": np.clip(md_lat + eps[:, 3] * _MD_OBS_STD, -30.0, 5.0),
        "label": (s / _SEVERITY_PER_Z + omega[patient] > 0.0) ^ flip,
        "img_severity": s,
        "image_seed": image_seed,
    })


@functools.cache
def _disc_geometry() -> tuple[float, np.ndarray, np.ndarray]:
    """The seed-free part of every raster: the disc radius, each pixel's
    squared distance from the centre, and the cupless background-and-disc
    image (both read-only)."""
    yy, xx = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE].astype(np.float64)
    cy = cx = IMAGE_SIZE / 2.0
    disc_r = IMAGE_SIZE * 0.22
    r2 = (yy - cy) ** 2 + (xx - cx) ** 2
    img = 0.30 + 0.06 * (yy / IMAGE_SIZE)
    img = np.where(r2 <= disc_r ** 2, 0.65, img)
    r2.flags.writeable = img.flags.writeable = False
    return disc_r, r2, img


def generate_images(severities, seeds) -> np.ndarray:
    """(n, IMAGE_SIZE, IMAGE_SIZE) disc/cup rasters in [0, 1]; row i is the
    raster of (severities[i], seeds[i]), seeds in [0, 2**64). The cup radius
    encodes severity, and the texture, from the substream (seed, "image"),
    keeps the Laplacian variance comfortably above 100. Rows are
    independent, so numerics.in_halves writes the two halves of the output
    on two threads, each half through its own Streams."""
    severities = np.asarray(severities, dtype=np.float64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    disc_r, r2, base = _disc_geometry()
    if not severities.size:   # no streams: Streams costs ~0.1 ms even for none
        return np.empty((0, *base.shape))
    cdr = np.clip(0.3 + 0.25 * severities, 0.1, 0.95)
    # Python's float power (libm pow), as one raster at a time computed it;
    # numpy's x*x rounds about 1 in 1,000 radii differently
    cup_r2 = np.array([(disc_r * c) ** 2 for c in cdr.tolist()])
    out = np.empty((severities.size, *base.shape))

    def rows(lo: int, hi: int) -> None:
        img = out[lo:hi]
        np.copyto(img, base)
        np.copyto(img, 0.95, where=r2 <= cup_r2[lo:hi, None, None])
        noise = Streams(seeds[lo:hi], "image").normal(base.size)
        noise *= 0.02
        img += noise.reshape(img.shape)
        np.clip(img, 0.0, 1.0, out=img)

    in_halves(rows, severities.size)
    return out


def generate_image(severity: float, seed: int) -> np.ndarray:
    """One raster of generate_images."""
    return generate_images([severity], [seed])[0]


def inject_blur(raster: np.ndarray, radius: int) -> np.ndarray:
    """Box blur of side 2*radius + 1 with replicate padding."""
    if radius < 0:
        raise ConfigError("blur radius must be >= 0")
    return uniform_filter(raster, size=2 * radius + 1, mode="nearest")


@dataclass
class Trajectory:
    kind: str
    table: CohortTable
    onset_time: float | None   # latent MD crossing of -2 dB, if any


# per-kind latent MD lines. Baselines are placed against the trained risk
# response (p crosses 0.5 near md -2.7, slope ~0.07/dB) so the stable case
# never trips either warning rule, the slow drift cannot rise-fire early
# (two-visit rise ~0.06), and the rapid breakout double-fires (rise + level)
# at or before the slow absolute crossing.
_TRAJ_SPACING = 0.8
_TRAJ_NOISE_STD = 0.03
_TRAJ_NOISE_CLIP = 0.08


def generate_trajectories(kind: str, n_visits: int, seeds
                          ) -> tuple[CohortTable, list[float | None]]:
    """Follow-up series of one simulated patient of group White per seed,
    stable, slow, or rapid, drawn column-wise from the streams
    (seed, "traj/<kind>"): one table of n_visits rows per seed, in the
    order of seeds, and each series' onset time. A repeated seed is the
    same patient twice."""
    if reason := refusal({"n_visits": n_visits}, DATA_BOUNDS):
        raise ConfigError(reason)
    if kind not in ("stable", "slow", "rapid"):
        raise ConfigError(f"unknown trajectory kind '{kind}'")
    seeds = list(seeds)
    rng = Streams(seeds, f"traj/{kind}")
    times = np.arange(n_visits) * _TRAJ_SPACING
    span = float(times[-1])
    if kind != "rapid":
        md0, slope = (0.5, -0.05 + 0.1 * rng.uniform()) if kind == "stable" \
            else (-0.7, np.full(len(seeds), -0.5))
        md_line = md0 + slope[:, None] * times
        onsets = [None if b >= -1e-9 else (-2.0 - md0) / b for b in slope.tolist()]
    else:
        md0, pre, post = -0.7, -0.2, -1.5
        t_break = span / 2.0
        md_break = md0 + pre * t_break
        md_line = np.tile(np.where(times <= t_break,
                                   md0 + pre * times,
                                   md_break + post * (times - t_break)), (len(seeds), 1))
        onsets = [t_break + (-2.0 - md_break) / post] * len(seeds)

    eps = np.clip(rng.normal(n_visits) * _TRAJ_NOISE_STD,
                  -_TRAJ_NOISE_CLIP, _TRAJ_NOISE_CLIP)
    feat_eps = rng.normal(3 * n_visits).reshape(-1, 3)
    image_seeds = rng.fill_u64(n_visits).reshape(-1)
    md_obs = (md_line + eps).reshape(-1)
    s = (-2.0 - md_obs) / _MD_PER_SEVERITY

    n = len(seeds) * n_visits
    cols = {
        "patient_id": [pid for pid in [f"traj-{kind}-{seed}" for seed in seeds]
                       for _ in range(n_visits)],
        "visit_index": np.tile(np.arange(n_visits), len(seeds)),
        "visit_time": np.tile(times, len(seeds)),
        "age": np.tile(65.0 + times, len(seeds)),
        "sex": ["F"] * n,
        "race": ["White"] * n,
        **_structure(s, feat_eps, (0.4, 0.4, 0.005)),
        "md": np.clip(md_obs, -30.0, 5.0),
        "label": (md_line < -2.0).reshape(-1).astype(np.int64),
        "img_severity": s,
        "image_seed": image_seeds,
    }
    return CohortTable(cols), onsets


def generate_trajectory(kind: str, n_visits: int, seed: int) -> Trajectory:
    """The follow-up series of generate_trajectories for one seed."""
    table, (onset,) = generate_trajectories(kind, n_visits, [seed])
    return Trajectory(kind=kind, table=table, onset_time=onset)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

# a continuous feature's statistics in preprocess.json, each with a value of
# its JSON type, and their bounds (fit_preprocess drops a constant feature)
_STATS_LIKE = {"global_mean": 0.0, "global_std": 1.0, "group_means": {"": 0.0}}
_STATS_BOUNDS = {"global_std": (lambda v: v > 0.0, "be > 0")}


@dataclass
class PreprocessStats:
    # each field in its preprocess.json form
    continuous: dict[str, dict]   # name -> {global_mean, global_std, group_means}
    dropped: list[str]
    categorical: dict[str, list[str]]    # name -> vocab (index 0 = unknown)

    @property
    def feature_names(self) -> list[str]:
        return [f for f in CONTINUOUS_FEATURES if f in self.continuous] + \
               list(CATEGORICAL_FEATURES)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PreprocessStats":
        """Inverse of to_dict; keys it does not know (such as the
        image-normalisation block older files carry) are ignored. A missing
        key, a block that is not an object, a statistic that is not a
        finite number, a global_std <= 0 and a name list that is not a list
        of strings are refused."""
        try:
            continuous = {}
            for name, st in _json_object(d["continuous"], "continuous").items():
                st = _json_object(st, f"continuous.{name}")
                continuous[name] = {key: st[key] for key in _STATS_LIKE}
                if reason := refusal(continuous[name], _STATS_BOUNDS, like=_STATS_LIKE):
                    raise SchemaError(f"preprocess stats: continuous.{name}: {reason}")
            return cls(continuous=continuous,
                       dropped=_strings(d["dropped"], "dropped"),
                       categorical={k: _strings(v, f"categorical.{k}") for k, v in
                                    _json_object(d["categorical"], "categorical").items()})
        except KeyError as exc:
            raise SchemaError(f"preprocess stats lack key {exc}") from None


def _json_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"preprocess stats: {where} must be an object, got "
                          f"{type(value).__name__}")
    return value


def _strings(value, where: str) -> list[str]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise SchemaError(f"preprocess stats: {where} must be a list of strings, "
                          f"got {json.dumps(value)}")
    return list(value)


def fit_preprocess(train: CohortTable) -> PreprocessStats:
    """Normalization statistics from the training split only."""
    if len(train) == 0:
        raise ConfigError("fit_preprocess: empty training table")
    continuous: dict[str, dict] = {}
    dropped: list[str] = []
    race = np.asarray(train.race)
    for name in CONTINUOUS_FEATURES:
        values = getattr(train, _COLUMN_OF[name])
        present = ~np.isnan(values)
        if not present.any():
            raise ConfigError(f"feature '{name}' has no observed values")
        mean = float(values[present].mean())
        std = float(values[present].std())  # population (1/n) convention
        if std <= 1e-12:
            warnings.warn(f"dropping constant feature '{name}'")
            dropped.append(name)
            continue
        group_means = {}
        for g in np.unique(race):
            m = present & (race == g)
            if m.any():
                group_means[str(g)] = float(values[m].mean())
        continuous[name] = {"global_mean": mean, "global_std": std,
                            "group_means": group_means}

    categorical = {
        name: sorted(set(getattr(train, name)))
        for name in CATEGORICAL_FEATURES
    }

    return PreprocessStats(continuous=continuous, dropped=dropped,
                           categorical=categorical)


def apply_preprocess_table(stats: PreprocessStats, table: CohortTable) -> np.ndarray:
    """(n, d) feature matrix: imputed + z-scored continuous columns, then
    categorical codes.

    Missing continuous values fill with the row's group mean (global mean
    for unseen groups); unseen categorical values truncate to index 0.
    """
    n = len(table)
    race = np.asarray(table.race)
    cols = []
    for name in CONTINUOUS_FEATURES:
        if name in stats.dropped:
            continue
        if name not in stats.continuous:
            raise SchemaError(f"stats lack feature '{name}'")
        st = stats.continuous[name]
        values = getattr(table, _COLUMN_OF[name]).copy()
        missing = np.isnan(values)
        if missing.any():
            fill = np.full(n, st["global_mean"])
            for g, gm in st["group_means"].items():
                fill[race == g] = gm
            values[missing] = fill[missing]
        cols.append((values - st["global_mean"]) / st["global_std"])
    for name in CATEGORICAL_FEATURES:
        if name not in stats.categorical:
            raise SchemaError(f"stats lack feature '{name}'")
        index = {v: k + 1 for k, v in enumerate(stats.categorical[name])}
        cols.append(np.array([index.get(v, 0) for v in getattr(table, name)],
                             dtype=np.float64))
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def refuse_existing(path) -> None:
    """The write-once rule: an output is never overwritten."""
    if os.path.exists(path):
        raise ConfigError(f"output already exists (run dirs are append-only): {path}")


def write_atomic(path: str, payload: str | bytes) -> None:
    """Write-once: temp file in the same directory, then rename."""
    refuse_existing(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    mode = "wb" if isinstance(payload, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json_object(path) -> dict:
    """A JSON file that must hold an object; SchemaError names the file when
    it is not UTF-8 JSON or holds anything else."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: not valid UTF-8 JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a JSON object, "
                          f"got {type(obj).__name__}")
    return obj


def write_cohort_csv(table: CohortTable, path, image_paths) -> None:
    """The cohort schema, with image_paths as its image_path column, written
    atomically and write-once."""
    columns = []
    for name, column in _CSV_COLUMNS.items():
        values = image_paths if name == "image_path" else getattr(table, name)
        if column.dtype is not list:
            values = values.tolist()
        if column.dtype is np.float64:
            values = ["" if math.isnan(x) else f"{x:.9g}" for x in values]
        columns.append(values)       # csv writes ints as they are, None as ""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerows(zip(*columns))
    write_atomic(path, buf.getvalue().encode("utf-8"))


def load_cohort_csv(path) -> CohortTable:
    """Read the cohort schema: every row's cell count first, then each
    column through its parser. Slope targets are derived, not read."""
    with open(path, "r", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise DataError("line 1: empty cohort file")
    if rows[0] != CSV_HEADER:
        raise SchemaError(f"line 1: unexpected header {rows[0]}")
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_HEADER):
            raise DataError(
                f"line {line_no}: expected {len(CSV_HEADER)} cells, got {len(row)}")
    cells = list(zip(*rows[1:])) or [()] * len(CSV_HEADER)
    columns = {name: _parse_column(column, col_cells) for (name, column), col_cells
               in zip(_CSV_COLUMNS.items(), cells)}
    base = os.path.dirname(os.fspath(path))
    columns["image_path"] = [os.path.join(base, p) if p else None
                             for p in columns["image_path"]]
    return CohortTable(columns)


def _parse_column(column: Column, cells) -> list:
    """One cohort.csv column through its parser; when the parser refuses
    it, a DataError names the line of the first cell it refuses."""
    try:
        return column.parse(cells)
    except ValueError:
        for line_no, cell in enumerate(cells, start=2):
            try:
                column.parse((cell,))
            except ValueError:
                raise DataError(f"line {line_no}: bad value for "
                                f"{column.header}: {cell!r}") from None
        raise


def assign_slope_targets(table: CohortTable) -> None:
    """Per-patient OLS slope of md on time for eligible patients, in place:
    the one rule every table's slope targets come from. Each patient's
    non-NaN md visits, in time order (ties in table order), form one row of
    the block of patients with that many such visits, so the row sums of
    ols_slope run as its sums over one patient's visits do."""
    if len(table) == 0:
        return
    _, patient = np.unique(table.patient_id, return_inverse=True)
    order = np.argsort(table.visit_time, kind="stable")
    order = order[np.argsort(patient[order], kind="stable")]
    order = order[~np.isnan(table.md[order])]
    owner = patient[order]
    slopes = np.full(patient.max() + 1, np.nan)
    count = np.bincount(owner, minlength=slopes.size)[owner]
    for k in np.unique(count):
        group = count == k
        times = table.visit_time[order[group]].reshape(-1, k)
        ok = eligibility_filter(times)
        if ok.any():
            slopes[owner[group][::k][ok]] = ols_slope(
                times[ok], table.md[order[group]].reshape(-1, k)[ok])
    table.slope_target[:] = slopes[patient]


def write_image_pgm(raster: np.ndarray, path) -> None:
    """Binary P5, maxval 255."""
    arr = np.clip(np.rint(np.asarray(raster) * 255.0), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


def load_image_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise DataError(f"{path}: not a binary PGM (P5) file")
    # header: magic, width, height, maxval, separated by whitespace
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3 and pos < len(data):
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":  # comment line
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if len(fields) < 3:
        raise DataError(f"{path}: truncated PGM header")
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(x) for x in fields)
    except ValueError:
        raise DataError(f"{path}: malformed PGM header")
    if w <= 0 or h <= 0:
        raise DataError(f"{path}: PGM size {w}x{h} is not positive")
    if maxval != 255:
        raise DataError(f"{path}: expected maxval 255, got {maxval}")
    body = data[pos : pos + w * h]
    if len(body) != w * h:
        raise DataError(f"{path}: truncated PGM body")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w).astype(np.float64) / 255.0


def write_cohort(table: CohortTable, out_dir, with_images: bool = True) -> None:
    """cohort.csv plus an images/ directory of PGMs. cohort.csv goes last and
    atomically: a crash may leave PGMs behind, never a truncated cohort."""
    csv_path = os.path.join(out_dir, "cohort.csv")
    refuse_existing(csv_path)
    image_paths: list[str | None] = [None] * len(table)
    if with_images:
        img_dir = os.path.join(out_dir, "images")
        os.makedirs(img_dir, exist_ok=True)
        for start, rasters in table.raster_blocks():
            for i, raster in enumerate(rasters, start):
                name = f"{table.patient_id[i]}_{int(table.visit_index[i])}.pgm"
                write_image_pgm(raster, os.path.join(img_dir, name))
                image_paths[i] = os.path.join("images", name)
    write_cohort_csv(table, csv_path, image_paths)
