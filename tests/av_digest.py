"""Digest of 816 ``omniedit_av`` calls, to check that a change leaves the
audio-visual editor's outputs and random streams bit for bit unchanged.

The calls cover 34 seeds x {diagonal, full-covariance, MLP} dual fields x
cfg scale {0, 1, 1.5, 3} x {with, without} source audio, with 1-4 rows,
keyed generators on odd seeds and T 2-24. The digest hashes each call's
output shapes and bytes, ``words_consumed`` and ``normal_draws``.

The calls are hashed into three digests, one per field: ``diagonal``,
``full`` (the full-covariance field) and ``mlp``. A change to one kind of
field then moves only its own digest, and the other two keep pinning
their calls bit for bit.

Run: ``PYTHONPATH=src python tests/av_digest.py`` (point PYTHONPATH at
another checkout's ``src`` to digest that one). It prints the call count
and the three digests and exits 1, naming each part that moved, if any
digest differs from RECORDED. RECORDED was taken with numpy 2.4 and
OpenBLAS on x86-64; other BLAS builds may round the MLP and the
full-covariance field differently. ``tests/test_av_digest.py`` asserts the
same digests under pytest.
"""

import hashlib
import sys

import numpy as np

from flowlab.core import Condition
from flowlab.gaussian import AnalyticDualField, GaussianConditionalField, GaussianSpec
from flowlab.mlp import MlpDualField, mlp_init
from flowlab.rng import CounterRng
from flowlab.samplers import EditConfig, omniedit_av

RECORDED = {
    "diagonal": "0e3032f2b22e7a6de7cc8d3c0155d05389dce5882da978ca42d82f6cd05834b6",
    "full": "d6f07b25160a653187cbe044afe769b52e186667747cc8b7355a9cbe23f15b21",
    "mlp": "72d90c2b41bb5543c5ec52671e4199412767f0785952f6ee471ce291dbf10cdd",
}

C0, C1, NULL = Condition.one_hot(0, 2), Condition.one_hot(1, 2), Condition.null(2)


def analytic(full: bool) -> AnalyticDualField:
    video, audio = GaussianConditionalField(2, 2), GaussianConditionalField(2, 1)
    if full:
        specs = [GaussianSpec([0.1, -0.3], [[1.0, 0.4], [0.4, 0.8]]),
                 GaussianSpec([1.5, 0.7], [[0.5, -0.2], [-0.2, 0.9]])]
    else:
        specs = [GaussianSpec([0.1, -0.3], [1.0, 0.8]), GaussianSpec([1.5, 0.7], [0.5, 0.9])]
    for c, v, a in ((C0, specs[0], GaussianSpec([0.2], [1.1])),
                    (C1, specs[1], GaussianSpec([-1.0], [0.3])),
                    (NULL, specs[0], GaussianSpec([0.0], [1.0]))):
        video.register(c, v)
        audio.register(c, a)
    return AnalyticDualField(video, audio)


def digest() -> tuple[int, dict[str, str]]:
    fields = {"diagonal": analytic(False), "full": analytic(True),
              "mlp": MlpDualField(mlp_init((16, 3), 2, 5), 2, 1)}
    hashes, calls = {part: hashlib.sha256() for part in fields}, 0
    for seed in range(34):
        for part, field in fields.items():
            h = hashes[part]
            for scale in (0.0, 1.0, 1.5, 3.0):
                for with_audio in (True, False):
                    rows = 1 + seed % 4
                    T = 2 + (seed * 7 + calls) % 23
                    n_max = 1 + (seed * 5 + calls) % T
                    data = CounterRng(1000 + seed)
                    video = data.normal_array((rows, 2))
                    audio = data.normal_array((rows, 1)) if with_audio else None
                    cfg = EditConfig(T=T, n_max=n_max, cfg_scale=scale, seed=seed)
                    if seed % 2:
                        rng = CounterRng([seed * 10 + r for r in range(rows)])
                        out = omniedit_av(field, video, audio, C0, C1, cfg, rng=rng)
                    else:
                        rng = CounterRng(seed)
                        out = omniedit_av(field, video[0], None if audio is None else audio[0],
                                          C0, C1, cfg, rng=rng)
                    for a in (out.video, out.audio):
                        h.update(repr(a.shape).encode())
                        h.update(np.ascontiguousarray(a).tobytes())
                    h.update(f"{rng.words_consumed},{rng.normal_draws}".encode())
                    calls += 1
    return calls, {part: h.hexdigest() for part, h in hashes.items()}


if __name__ == "__main__":
    calls, digests = digest()
    print(calls, "calls")
    for part, hexdigest in digests.items():
        print(part, hexdigest)
    moved = [part for part in RECORDED if digests[part] != RECORDED[part]]
    if moved:
        print("moved:", ", ".join(moved))
    sys.exit(1 if moved else 0)
