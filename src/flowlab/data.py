"""Synthetic paired audio-visual data: per-class Gaussian video latents with
linearly coupled audio latents, plus CSV import/export."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import Condition
from .errors import InvalidConfigError, ShapeMismatchError
from .rng import CounterRng


@dataclass(frozen=True)
class AvSynthParams:
    """Generator parameters: video class means (K, dv), per-class audio
    offsets (K, da), coupling matrix (da, dv), and the two noise scales."""

    video_means: np.ndarray
    audio_offsets: np.ndarray
    coupling: np.ndarray
    video_scale: float = 1.0
    noise_scale: float = 0.1

    def __post_init__(self):
        vm = np.atleast_2d(np.asarray(self.video_means, dtype=np.float64))
        ao = np.atleast_2d(np.asarray(self.audio_offsets, dtype=np.float64))
        cp = np.atleast_2d(np.asarray(self.coupling, dtype=np.float64))
        object.__setattr__(self, "video_means", vm)
        object.__setattr__(self, "audio_offsets", ao)
        object.__setattr__(self, "coupling", cp)
        if ao.shape[0] != vm.shape[0]:
            raise ShapeMismatchError("video_means and audio_offsets disagree on class count")
        if cp.shape != (ao.shape[1], vm.shape[1]):
            raise ShapeMismatchError(
                f"coupling shape {cp.shape} != (audio_dim {ao.shape[1]}, video_dim {vm.shape[1]})"
            )
        if self.video_scale < 0.0 or self.noise_scale < 0.0:
            raise InvalidConfigError("scales must be >= 0")

    @property
    def num_classes(self) -> int:
        return self.video_means.shape[0]

    @property
    def video_dim(self) -> int:
        return self.video_means.shape[1]

    @property
    def audio_dim(self) -> int:
        return self.audio_offsets.shape[1]


@dataclass
class CoupledAvDataset:
    """Paired (n, video_dim) and (n, audio_dim) rows with class labels; the
    rows must be finite and the labels lie in 0..num_classes-1."""

    video: np.ndarray
    audio: np.ndarray
    labels: np.ndarray
    num_classes: int
    params: AvSynthParams | None = None

    def __post_init__(self):
        if not (np.all(np.isfinite(self.video)) and np.all(np.isfinite(self.audio))):
            raise InvalidConfigError("dataset entries must be finite")
        labels = np.asarray(self.labels)
        if np.any(labels < 0) or np.any(labels >= self.num_classes):
            raise InvalidConfigError(f"class labels must lie in 0..{self.num_classes - 1}")

    def __len__(self) -> int:
        return self.video.shape[0]

    @property
    def video_dim(self) -> int:
        return self.video.shape[1]

    @property
    def audio_dim(self) -> int:
        return self.audio.shape[1]

    def joint_states(self) -> np.ndarray:
        """Video and audio concatenated, the state a joint model trains on."""
        return np.concatenate([self.video, self.audio], axis=1)

    def joint_pairs(self) -> list[tuple[np.ndarray, Condition]]:
        """(joint row, one-hot class condition) pairs, the input of ``train``.
        The rows of one class share one (frozen, read-only) ``Condition``."""
        conditions = [Condition.one_hot(k, self.num_classes) for k in range(self.num_classes)]
        return [(row, conditions[int(k)]) for row, k in zip(self.joint_states(), self.labels)]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                [f"video_{j}" for j in range(self.video_dim)]
                + [f"audio_{j}" for j in range(self.audio_dim)]
                + ["class"]
            )
            for v, a, k in zip(self.video, self.audio, self.labels):
                writer.writerow(
                    [format(x, ".17g") for x in v]
                    + [format(x, ".17g") for x in a]
                    + [int(k)]
                )

    @classmethod
    def from_csv(cls, path) -> "CoupledAvDataset":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            raise InvalidConfigError(f"empty dataset file {path}")
        header, body = rows[0], rows[1:]
        dv = sum(1 for h in header if h.startswith("video_"))
        da = sum(1 for h in header if h.startswith("audio_"))
        expected = [f"video_{j}" for j in range(dv)] + [f"audio_{j}" for j in range(da)] + ["class"]
        if dv == 0 or da == 0 or header != expected:
            raise InvalidConfigError(f"unrecognized dataset header {header}")
        if not body:
            raise InvalidConfigError(f"no rows in dataset file {path}")
        if any(len(r) != len(header) for r in body):
            raise InvalidConfigError(f"{path}: every row needs {len(header)} cells")
        try:
            video = np.array([[float(x) for x in r[:dv]] for r in body])
            audio = np.array([[float(x) for x in r[dv : dv + da]] for r in body])
            labels = np.array([int(r[-1]) for r in body])
        except ValueError:
            raise InvalidConfigError(f"{path}: non-numeric cell") from None
        return cls(video=video, audio=audio, labels=labels, num_classes=int(labels.max()) + 1)


def synth_av_dataset(params: AvSynthParams, n: int, seed: int) -> CoupledAvDataset:
    """Draw n coupled samples: class k uniform, video ~ N(mean_k, scale^2 I),
    audio = coupling @ video + offset_k + noise. Deterministic under seed;
    draw order is classes, then video normals, then audio normals."""
    if n < 1:
        raise InvalidConfigError(f"need n >= 1, got {n}")
    rng = CounterRng(seed)
    labels = np.minimum((rng.uniform(n) * params.num_classes).astype(int), params.num_classes - 1)
    video = params.video_means[labels] + params.video_scale * rng.normal_array((n, params.video_dim))
    audio = (
        video @ params.coupling.T
        + params.audio_offsets[labels]
        + params.noise_scale * rng.normal_array((n, params.audio_dim))
    )
    return CoupledAvDataset(
        video=video, audio=audio, labels=labels, num_classes=params.num_classes, params=params
    )
