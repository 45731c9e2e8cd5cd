"""Random-projection heartbeat classification (the RP-CLASS front end).

Implements the method of Braojos et al., "A Methodology for Embedded
Classification of Heartbeats Using Random Projections" (DATE 2013,
[22]): a window around each detected R peak is normalised, projected
onto a low-dimensional space with a fixed ±1 random matrix, and
classified by nearest-neighbour search against stored projected
prototypes.  Random projection preserves pairwise distances
(Johnson-Lindenstrauss), so the cheap low-dimensional NN search
approximates the full-window comparison at a fraction of the memory
and compute — ideal for a 16-bit sensor node.

The stored prototype database is what makes the paper's RP-CLASS
single-core configuration occupy 11 data-memory banks (Table I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..signals.records import BeatLabel


@dataclass(frozen=True)
class RpParams:
    """Classifier geometry.

    Attributes:
        window_pre_s: window span before the R peak, seconds.
        window_post_s: window span after the R peak, seconds.
        projected_dims: dimensionality after random projection.
        max_prototypes_per_class: stored prototype budget per class.
        seed: seed of the fixed ±1 projection matrix.
    """

    window_pre_s: float = 0.20
    window_post_s: float = 0.36
    projected_dims: int = 16
    max_prototypes_per_class: int = 64
    seed: int = 13


class RandomProjectionClassifier:
    """±1 random projection + nearest-neighbour beat classifier.

    Args:
        fs: sampling frequency in Hz.
        params: classifier geometry.
    """

    def __init__(self, fs: float, params: RpParams | None = None) -> None:
        self.fs = fs
        self.params = params or RpParams()
        self.pre = int(round(self.params.window_pre_s * fs))
        self.post = int(round(self.params.window_post_s * fs))
        self.window_len = self.pre + self.post
        rng = np.random.default_rng(self.params.seed)
        self.projection = rng.choice(
            (-1, 1),
            size=(self.params.projected_dims, self.window_len)
        ).astype(np.int32)
        self._prototypes: np.ndarray | None = None
        self._labels: list[BeatLabel] = []

    # ------------------------------------------------------------------
    # Window handling
    # ------------------------------------------------------------------

    def extract_window(self, lead: np.ndarray, peak: int
                       ) -> np.ndarray | None:
        """Cut and normalise the beat window around ``peak``.

        Returns ``None`` when the window falls outside the record.
        """
        lo = peak - self.pre
        hi = peak + self.post
        if lo < 0 or hi > len(lead):
            return None
        window = np.asarray(lead[lo:hi], dtype=np.float64)
        window = window - window.mean()
        scale = np.max(np.abs(window))
        if scale > 0:
            window = window / scale
        return window

    def project(self, window: np.ndarray) -> np.ndarray:
        """Random-project a normalised window."""
        if len(window) != self.window_len:
            raise ValueError(
                f"window length {len(window)} != {self.window_len}")
        return self.projection @ window

    # ------------------------------------------------------------------
    # Training and inference
    # ------------------------------------------------------------------

    def fit(self, lead: np.ndarray, peaks: list[int],
            labels: list[BeatLabel]) -> int:
        """Build the projected prototype database from labelled beats.

        Returns the number of prototypes stored.  Each class keeps at
        most ``max_prototypes_per_class`` evenly spread examples
        (the DATE-2013 flow condenses the training set so it fits the
        node's data memory).
        """
        if len(peaks) != len(labels):
            raise ValueError("peaks and labels must align")
        by_class: dict[BeatLabel, list[np.ndarray]] = {}
        for peak, label in zip(peaks, labels):
            window = self.extract_window(lead, peak)
            if window is None:
                continue
            by_class.setdefault(label, []).append(self.project(window))
        prototypes: list[np.ndarray] = []
        self._labels = []
        budget = self.params.max_prototypes_per_class
        for label, projected in by_class.items():
            if len(projected) > budget:
                chosen = np.linspace(0, len(projected) - 1, budget)
                projected = [projected[int(i)] for i in chosen]
            prototypes.extend(projected)
            self._labels.extend([label] * len(projected))
        if not prototypes:
            raise ValueError("no usable training beats")
        self._prototypes = np.stack(prototypes)
        return len(prototypes)

    @property
    def prototype_count(self) -> int:
        """Stored prototypes (0 before :meth:`fit`)."""
        return 0 if self._prototypes is None else len(self._prototypes)

    def classify_window(self, window: np.ndarray) -> BeatLabel:
        """Classify one normalised beat window (1-NN in RP space)."""
        if self._prototypes is None:
            raise RuntimeError("classifier not fitted")
        projected = self.project(window)
        distances = np.sum((self._prototypes - projected) ** 2, axis=1)
        return self._labels[int(np.argmin(distances))]

    def classify_beat(self, lead: np.ndarray, peak: int
                      ) -> BeatLabel | None:
        """Classify the beat at ``peak``; None if the window is cut off."""
        window = self.extract_window(lead, peak)
        if window is None:
            return None
        return self.classify_window(window)

    def dm_words(self) -> int:
        """Data-memory footprint of the model in 16-bit words.

        Projection matrix (±1, packed one sign per word here for
        simplicity) plus the prototype database.
        """
        matrix = self.projection.size
        prototypes = self.prototype_count * self.params.projected_dims
        return matrix + prototypes
