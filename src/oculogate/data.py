"""Synthetic cohorts, fundus-like rasters, trajectories, preprocessing,
and the CSV/PGM interchange formats.

Generation is a pure function of (spec, seed): every patient and visit draws
from its own labeled substream, so tables regenerate bit-for-bit in any
order. The latent model ties everything together: a risk score z drives
severity s = 0.8*z, field loss md = -2 - 8*s, structural features track s,
and the screening label is 1 iff z (plus a per-patient ambiguity term) is
positive, then flipped with probability label_noise.
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
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import uniform_filter
from scipy.special import ndtri

from .errors import ConfigError, DataError, SchemaError
from .metrics import eligibility_filter, ols_slope
from .rng import Rng, substream_normals

GROUPS = ("Asian", "Black", "White")

CSV_HEADER = [
    "patient_id", "visit_index", "visit_time_years", "age", "sex", "race",
    "rnflt_um", "iop_mmhg", "cdr", "md_db", "label", "image_path",
]

CONTINUOUS_FEATURES = ("rnflt_um", "iop_mmhg", "cdr", "age")
CATEGORICAL_FEATURES = ("sex", "race")
_COLUMN_OF = {"rnflt_um": "rnflt", "iop_mmhg": "iop", "cdr": "cdr", "age": "age"}

IMAGE_SIZE = 64

# latent-model constants
_MD_PER_SEVERITY = 8.0       # md = -2 - 8*s
_SEVERITY_PER_Z = 0.8        # s = 0.8*z
_LABEL_AMBIGUITY_STD = 0.2   # per-patient fuzz between severity and label
_MD_OBS_STD = 0.35
_RNFLT_STD = 2.5
_IOP_STD = 1.5
_CDR_STD = 0.02


@dataclass
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

    def validate(self) -> None:
        if self.n_patients < 1:
            raise ConfigError("n_patients must be >= 1")
        lo, hi = self.visits_per_patient
        if lo < 1 or hi < lo:
            raise ConfigError("visits_per_patient range is invalid")
        if abs(sum(self.group_mix.values()) - 1.0) > 1e-9:
            raise ConfigError("group_mix fractions must sum to 1")
        if not 0.0 < self.prevalence < 1.0:
            raise ConfigError("prevalence must lie in (0, 1)")
        if not 0.0 <= self.label_noise < 0.5:
            raise ConfigError("label_noise must lie in [0, 0.5)")
        for g in self.group_shift:
            if g not in self.group_mix:
                raise ConfigError(f"group_shift names unknown group '{g}'")


def default_cohort_spec(**overrides) -> CohortSpec:
    """Cohort with one subgroup pushed toward the decision boundary (Black),
    one pushed away (Asian); drives both the selective-prediction and
    fairness experiments."""
    spec = CohortSpec(
        group_shift={"Asian": 0.5, "Black": -0.5, "White": 0.0},
    )
    for k, v in overrides.items():
        if not hasattr(spec, k):
            raise ConfigError(f"unknown CohortSpec field '{k}'")
        setattr(spec, k, v)
    return spec


class CohortTable:
    """Columnar visits table. A row's raster resolves from storage, file
    path, or the generator latents, in that order; raster_stack reads many
    rows at once."""

    def __init__(self, columns: dict):
        self.patient_id: list[str] = columns["patient_id"]
        self.visit_index = np.asarray(columns["visit_index"], dtype=np.int64)
        self.visit_time = np.asarray(columns["visit_time"], dtype=np.float64)
        self.age = np.asarray(columns["age"], dtype=np.float64)
        self.sex: list[str] = columns["sex"]
        self.race: list[str] = columns["race"]
        self.rnflt = np.asarray(columns["rnflt"], dtype=np.float64)
        self.iop = np.asarray(columns["iop"], dtype=np.float64)
        self.cdr = np.asarray(columns["cdr"], dtype=np.float64)
        self.md = np.asarray(columns["md"], dtype=np.float64)
        self.label = np.asarray(columns["label"], dtype=np.int64)
        self.slope_target = np.asarray(columns["slope_target"], dtype=np.float64)
        self.img_severity = np.asarray(
            columns.get("img_severity", np.full(len(self.patient_id), np.nan)),
            dtype=np.float64,
        )
        self.image_seed = np.asarray(
            columns.get("image_seed", np.zeros(len(self.patient_id))), dtype=np.uint64
        )
        self.image_path: list[str | None] = columns.get(
            "image_path", [None] * len(self.patient_id)
        )
        self.rasters: list[np.ndarray | None] = columns.get(
            "rasters", [None] * len(self.patient_id)
        )

    def __len__(self) -> int:
        return len(self.patient_id)

    def sample_ids(self) -> list[str]:
        return [f"{p}#{v}" for p, v in zip(self.patient_id, self.visit_index)]

    def raster(self, i: int) -> np.ndarray:
        return self.raster_stack([i])[0]

    def raster_stack(self, indices) -> np.ndarray:
        """(len(indices), H, W) rasters of the given rows: attached rasters
        as they are, PGM files one by one, and generated rows through one
        generate_images call."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        stack: list[np.ndarray | None] = [None] * idx.size
        generated = []
        for j, i in enumerate(idx):
            if self.rasters[i] is not None:
                stack[j] = self.rasters[i]
            elif self.image_path[i]:
                stack[j] = load_image_pgm(self.image_path[i])
            elif np.isnan(self.img_severity[i]):
                raise DataError(f"sample {i} has no image source")
            else:
                generated.append(j)
        rows = idx[generated]
        images = generate_images(self.img_severity[rows], self.image_seed[rows])
        if len(generated) == idx.size:
            return images
        for j, image in zip(generated, images):
            stack[j] = image
        return np.stack(stack)

    def subset(self, indices) -> "CohortTable":
        idx = np.asarray(indices)
        return CohortTable({
            "patient_id": [self.patient_id[i] for i in idx],
            "visit_index": self.visit_index[idx],
            "visit_time": self.visit_time[idx],
            "age": self.age[idx],
            "sex": [self.sex[i] for i in idx],
            "race": [self.race[i] for i in idx],
            "rnflt": self.rnflt[idx],
            "iop": self.iop[idx],
            "cdr": self.cdr[idx],
            "md": self.md[idx],
            "label": self.label[idx],
            "slope_target": self.slope_target[idx],
            "img_severity": self.img_severity[idx],
            "image_seed": self.image_seed[idx],
            "image_path": [self.image_path[i] for i in idx],
            "rasters": [self.rasters[i] for i in idx],
        })

    def patients(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for i, pid in enumerate(self.patient_id):
            out.setdefault(pid, []).append(i)
        return out

    def equals(self, other: "CohortTable", float_rtol: float = 0.0) -> bool:
        if len(self) != len(other):
            return False
        if self.patient_id != other.patient_id or self.sex != other.sex \
                or self.race != other.race:
            return False
        if not (np.array_equal(self.visit_index, other.visit_index)
                and np.array_equal(self.label, other.label)):
            return False
        for a, b in ((self.visit_time, other.visit_time), (self.age, other.age),
                     (self.rnflt, other.rnflt), (self.iop, other.iop),
                     (self.cdr, other.cdr), (self.md, other.md),
                     (self.slope_target, other.slope_target)):
            na, nb = np.isnan(a), np.isnan(b)
            if not np.array_equal(na, nb):
                return False
            if float_rtol == 0.0:
                if not np.array_equal(a[~na], b[~nb]):
                    return False
            elif not np.allclose(a[~na], b[~nb], rtol=float_rtol, atol=0.0):
                return False
        return True


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generate_cohort(spec: CohortSpec) -> CohortTable:
    """Synthetic multi-visit cohort, reproducible from spec.seed."""
    spec.validate()
    groups = sorted(spec.group_mix)
    mix = np.array([spec.group_mix[g] for g in groups])
    mean_shift = float(sum(spec.group_mix[g] * spec.group_shift.get(g, 0.0)
                           for g in groups))
    # age ~ U(30, 90) contributes variance 3 * age_effect^2 to the risk logit
    sigma_eff = math.sqrt(1.0 + 3.0 * spec.age_effect ** 2)
    z0 = sigma_eff * float(ndtri(spec.prevalence)) - mean_shift

    cols: dict[str, list] = {k: [] for k in (
        "patient_id", "visit_index", "visit_time", "age", "sex", "race",
        "rnflt", "iop", "cdr", "md", "label", "slope_target",
        "img_severity", "image_seed")}
    vmin, vmax = spec.visits_per_patient
    for i in range(spec.n_patients):
        pid = f"P{i:05d}"
        rp = Rng(spec.seed, f"patient/{i}")
        group = groups[rp.choice(mix)]
        age0 = 30.0 + 60.0 * rp.uniform()
        eta = rp.normal()
        omega = rp.normal() * _LABEL_AMBIGUITY_STD
        sex = "F" if rp.uniform() < 0.5 else "M"
        n_visits = rp.integers(vmin, vmax + 1)
        gaps = 0.4 + 0.4 * rp.uniform(max(n_visits - 1, 1))
        times = np.concatenate([[0.0], np.cumsum(gaps[: n_visits - 1])])

        z = z0 + spec.age_effect * (age0 - 60.0) / 10.0 \
            + spec.group_shift.get(group, 0.0) + eta
        s0 = _SEVERITY_PER_Z * z
        md0 = -2.0 - _MD_PER_SEVERITY * s0
        slope = -(0.05 + 0.25 * max(s0, 0.0)) + rp.normal() * 0.08
        slope = float(np.clip(slope, -2.0, 0.3))

        md_obs_series = np.empty(n_visits)
        for v in range(n_visits):
            rv = Rng(spec.seed, f"visit/{i}/{v}")
            eps = rv.normal(4)
            flip = rv.uniform() < spec.label_noise
            image_seed = int(rv.next_u64())

            t = float(times[v])
            md_lat = md0 + slope * t
            s_t = (-2.0 - md_lat) / _MD_PER_SEVERITY
            z_t = s_t / _SEVERITY_PER_Z
            label = int(z_t + omega > 0.0) ^ int(flip)
            md_obs = float(np.clip(md_lat + eps[3] * _MD_OBS_STD, -30.0, 5.0))
            md_obs_series[v] = md_obs

            cols["patient_id"].append(pid)
            cols["visit_index"].append(v)
            cols["visit_time"].append(t)
            cols["age"].append(age0 + t)
            cols["sex"].append(sex)
            cols["race"].append(group)
            cols["rnflt"].append(
                float(np.clip(95.0 - 25.0 * s_t + eps[0] * _RNFLT_STD, 30.0, 140.0)))
            cols["iop"].append(
                float(np.clip(16.0 + 3.0 * s_t + eps[1] * _IOP_STD, 6.0, 45.0)))
            cols["cdr"].append(
                float(np.clip(0.3 + 0.25 * s_t + eps[2] * _CDR_STD, 0.05, 0.98)))
            cols["md"].append(md_obs)
            cols["label"].append(label)
            cols["img_severity"].append(s_t)
            cols["image_seed"].append(image_seed)

        if eligibility_filter(times):
            m = ols_slope(times, md_obs_series)
        else:
            m = np.nan
        cols["slope_target"].extend([m] * n_visits)

    return CohortTable(cols)


_RASTER_BLOCK = 32   # rasters per noise block: 1 MB of uint64 draws


@functools.lru_cache(maxsize=None)
def _disc_geometry(size: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The size-only part of every raster: the disc radius, each pixel's
    squared distance from the centre, and the cupless background-and-disc
    image (both read-only)."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cy = cx = size / 2.0
    disc_r = size * 0.22
    r2 = (yy - cy) ** 2 + (xx - cx) ** 2
    img = 0.30 + 0.06 * (yy / size)
    img = np.where(r2 <= disc_r ** 2, 0.65, img)
    r2.flags.writeable = img.flags.writeable = False
    return disc_r, r2, img


def generate_images(severities, seeds, size: int = IMAGE_SIZE) -> np.ndarray:
    """(n, size, size) disc/cup rasters in [0, 1]; row i is the raster of
    (severities[i], seeds[i]), seeds in [0, 2**64). The cup radius encodes
    severity, and the texture, from the substream (seed, "image"), keeps the
    Laplacian variance comfortably above 100."""
    severities = np.asarray(severities, dtype=np.float64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    disc_r, r2, base = _disc_geometry(size)
    cdr = np.clip(0.3 + 0.25 * severities, 0.1, 0.95)
    # Python's float power (libm pow), as one raster at a time computed it;
    # numpy's x*x rounds about 1 in 1,000 radii differently
    cup_r2 = np.array([(disc_r * c) ** 2 for c in cdr.tolist()])
    out = np.empty((severities.size, size, size))
    for start in range(0, severities.size, _RASTER_BLOCK):
        block = slice(start, start + _RASTER_BLOCK)
        img = np.where(r2 <= cup_r2[block, None, None], 0.95, base)
        img += substream_normals(seeds[block], "image",
                                 size * size).reshape(-1, size, size) * 0.02
        np.clip(img, 0.0, 1.0, out=out[block])
    return out


def generate_image(severity: float, seed: int, size: int = IMAGE_SIZE) -> np.ndarray:
    """One raster of generate_images."""
    return generate_images([severity], [seed], size)[0]


def inject_blur(raster: np.ndarray, radius: int) -> np.ndarray:
    """Box blur of side 2*radius + 1 with replicate padding."""
    if radius < 0:
        raise ConfigError("blur radius must be >= 0")
    if radius == 0:
        return raster.copy()
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


def generate_trajectory(kind: str, n_visits: int, seed: int,
                        group: str = "White") -> Trajectory:
    """Follow-up series for one simulated patient: stable, slow, or rapid."""
    if n_visits < 4:
        raise ConfigError("trajectories need at least 4 visits")
    if kind not in ("stable", "slow", "rapid"):
        raise ConfigError(f"unknown trajectory kind '{kind}'")
    rng = Rng(seed, f"traj/{kind}")
    times = np.arange(n_visits) * _TRAJ_SPACING
    span = float(times[-1])
    if kind == "stable":
        md0 = 0.5
        slope = -0.05 + 0.1 * rng.uniform()
        md_line = md0 + slope * times
        onset = None if slope >= -1e-9 else (-2.0 - md0) / slope
    elif kind == "slow":
        md0, slope = -0.7, -0.5
        md_line = md0 + slope * times
        onset = (-2.0 - md0) / slope
    else:
        md0, pre, post = -0.7, -0.2, -1.5
        t_break = span / 2.0
        md_break = md0 + pre * t_break
        md_line = np.where(times <= t_break,
                           md0 + pre * times,
                           md_break + post * (times - t_break))
        onset = t_break + (-2.0 - md_break) / post

    eps = np.clip(rng.normal(n_visits) * _TRAJ_NOISE_STD,
                  -_TRAJ_NOISE_CLIP, _TRAJ_NOISE_CLIP)
    feat_eps = rng.normal((n_visits, 3))
    image_seeds = rng.fill_u64(n_visits)
    md_obs = md_line + eps
    s = (-2.0 - md_obs) / _MD_PER_SEVERITY

    pid = f"traj-{kind}-{seed}"
    cols = {
        "patient_id": [pid] * n_visits,
        "visit_index": np.arange(n_visits),
        "visit_time": times,
        "age": 65.0 + times,
        "sex": ["F"] * n_visits,
        "race": [group] * n_visits,
        "rnflt": np.clip(95.0 - 25.0 * s + feat_eps[:, 0] * 0.4, 30.0, 140.0),
        "iop": np.clip(16.0 + 3.0 * s + feat_eps[:, 1] * 0.4, 6.0, 45.0),
        "cdr": np.clip(0.3 + 0.25 * s + feat_eps[:, 2] * 0.005, 0.05, 0.98),
        "md": np.clip(md_obs, -30.0, 5.0),
        "label": (md_line < -2.0).astype(np.int64),
        "slope_target": np.full(n_visits, np.nan),
        "img_severity": s,
        "image_seed": image_seeds,
    }
    if eligibility_filter(times):
        cols["slope_target"] = np.full(n_visits, ols_slope(times, md_obs))
    if onset is not None and onset <= 0:
        onset = None
    return Trajectory(kind=kind, table=CohortTable(cols), onset_time=onset)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

@dataclass
class PreprocessStats:
    continuous: dict[str, dict]          # name -> {mean, std, group_means}
    dropped: list[str]
    categorical: dict[str, list[str]]    # name -> vocab (index 0 = unknown)

    @property
    def feature_names(self) -> list[str]:
        return [f for f in CONTINUOUS_FEATURES if f in self.continuous] + \
               list(CATEGORICAL_FEATURES)

    def to_dict(self) -> dict:
        return {
            "continuous": {
                name: {
                    "global_mean": st["mean"],
                    "global_std": st["std"],
                    "group_means": {g: st["group_means"][g]
                                    for g in sorted(st["group_means"])},
                }
                for name, st in self.continuous.items()
            },
            "dropped": self.dropped,
            "categorical": {name: list(vocab)
                            for name, vocab in self.categorical.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PreprocessStats":
        """Inverse of to_dict; keys it does not know (such as the
        image-normalisation block older files carry) are ignored."""
        try:
            return cls(
                continuous={
                    name: {"mean": st["global_mean"], "std": st["global_std"],
                           "group_means": dict(st["group_means"])}
                    for name, st in d["continuous"].items()
                },
                dropped=list(d["dropped"]),
                categorical={k: list(v) for k, v in d["categorical"].items()},
            )
        except KeyError as exc:
            raise SchemaError(f"preprocess stats lack key {exc}") from None


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
        continuous[name] = {"mean": mean, "std": std, "group_means": group_means}

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
            fill = np.full(n, st["mean"])
            for g, gm in st["group_means"].items():
                fill[race == g] = gm
            values[missing] = fill[missing]
        cols.append((values - st["mean"]) / st["std"])
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

def _fmt(x: float) -> str:
    return "" if (x is None or (isinstance(x, float) and math.isnan(x))) \
        else f"{x:.9g}"


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


def write_cohort_csv(table: CohortTable, path, image_paths=None) -> None:
    """The cohort schema, written atomically and write-once."""
    image_paths = image_paths or table.image_path
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for i in range(len(table)):
        w.writerow([
            table.patient_id[i],
            int(table.visit_index[i]),
            _fmt(float(table.visit_time[i])),
            _fmt(float(table.age[i])),
            table.sex[i],
            table.race[i],
            _fmt(float(table.rnflt[i])),
            _fmt(float(table.iop[i])),
            _fmt(float(table.cdr[i])),
            _fmt(float(table.md[i])),
            int(table.label[i]),
            image_paths[i] or "",
        ])
    write_atomic(path, buf.getvalue().encode("utf-8"))


def load_cohort_csv(path) -> CohortTable:
    """Read the cohort schema; slope targets are recomputed from the MD
    series of each eligible patient."""
    base = os.path.dirname(os.fspath(path))

    def parse_float(cell: str, line_no: int, col: str) -> float:
        if cell == "":
            return float("nan")
        try:
            return float(cell)
        except ValueError:
            raise DataError(f"line {line_no}: bad value for {col}: {cell!r}")

    cols: dict[str, list] = {k: [] for k in (
        "patient_id", "visit_index", "visit_time", "age", "sex", "race",
        "rnflt", "iop", "cdr", "md", "label", "image_path")}
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("line 1: empty cohort file")
        if header != CSV_HEADER:
            raise SchemaError(f"line 1: unexpected header {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise DataError(
                    f"line {line_no}: expected {len(CSV_HEADER)} cells, got {len(row)}")
            cols["patient_id"].append(row[0])
            try:
                cols["visit_index"].append(int(row[1]))
            except ValueError:
                raise DataError(f"line {line_no}: bad visit_index {row[1]!r}")
            cols["visit_time"].append(parse_float(row[2], line_no, "visit_time_years"))
            cols["age"].append(parse_float(row[3], line_no, "age"))
            cols["sex"].append(row[4])
            cols["race"].append(row[5])
            cols["rnflt"].append(parse_float(row[6], line_no, "rnflt_um"))
            cols["iop"].append(parse_float(row[7], line_no, "iop_mmhg"))
            cols["cdr"].append(parse_float(row[8], line_no, "cdr"))
            cols["md"].append(parse_float(row[9], line_no, "md_db"))
            if row[10] not in ("0", "1"):
                raise DataError(f"line {line_no}: label must be 0 or 1, got {row[10]!r}")
            cols["label"].append(int(row[10]))
            cols["image_path"].append(
                os.path.join(base, row[11]) if row[11] else None)

    n = len(cols["patient_id"])
    cols["slope_target"] = [float("nan")] * n
    table = CohortTable(cols)
    assign_slope_targets(table)
    return table


def assign_slope_targets(table: CohortTable) -> None:
    """Per-patient OLS slope of md on time for eligible patients, in place."""
    for pid, idx in table.patients().items():
        idx = sorted(idx, key=lambda i: table.visit_time[i])
        times = table.visit_time[idx]
        mds = table.md[idx]
        ok = ~np.isnan(mds)
        if eligibility_filter(times[ok]):
            table.slope_target[idx] = ols_slope(times[ok], mds[ok])
        else:
            table.slope_target[idx] = np.nan


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
        for start in range(0, len(table), 512):   # 16 MB of rasters at a time
            rows = range(start, min(start + 512, len(table)))
            for i, raster in zip(rows, table.raster_stack(rows)):
                name = f"{table.patient_id[i]}_{int(table.visit_index[i])}.pgm"
                write_image_pgm(raster, os.path.join(img_dir, name))
                image_paths[i] = os.path.join("images", name)
    write_cohort_csv(table, csv_path, image_paths)
