"""The benchmark's workloads: pinned synthetic cubes and encoder settings.

A workload is a set of ``cubes`` cubes made by ``make_cube`` from
``scripts/make_synthetic_cube.py``; cube ``i`` of seed ``s`` uses generator
seed ``1000 * s + i``. Several cubes per run make the rate, quality and
time of one seed a median over content, not one draw. ``pinned_sha256`` is
the digest of cube 0 at ``DEFAULT_SEED``; a change to the generator that
alters a workload fails the run instead of passing unnoticed.

Every band is resized to 256 x 256 by the codec, so the work per band is
fixed. MSE_GOAL is low enough that the epoch cap ends training, so the
work per run does not depend on when a band happens to reach the goal, and
``max_seconds`` is far beyond any run so the ``time`` stop never fires.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 7
CUBE_SIZE = 256
SUBSEED_STRIDE = 1000
MSE_GOAL = 1e-5
NO_TIME_LIMIT = 1e6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    texture: float        # make_cube's fresh per-band texture amplitude
    bands: int
    cubes: int            # cubes encoded per pass
    decodes: int          # timed decodes of each encoded stream
    epochs: int           # LM epoch cap per band
    init_range: float
    lam: float | None     # compensation tolerance (q_step 1); None turns compensation off
    pinned_sha256: str

    def encoder_config(self, codec):
        comp = codec.CompensationConfig(lam=self.lam or 0.0, q_step=1, enabled=self.lam is not None)
        train = codec.TrainConfig(
            mse_goal=MSE_GOAL,
            max_epochs=self.epochs,
            max_seconds=NO_TIME_LIMIT,
            init_range=(-self.init_range, self.init_range),
        )
        return codec.EncoderConfig(train=train, compensation=comp)

    def make_cubes(self, make_cube, seed: int, count: int | None = None):
        return [
            make_cube(self.bands, CUBE_SIZE, SUBSEED_STRIDE * seed + i, self.texture)
            for i in range(self.cubes if count is None else count)
        ]


def cube_digest(cube) -> str:
    h = hashlib.sha256(repr(cube.data.shape).encode())
    h.update(cube.data.astype("<i2").tobytes())
    return h.hexdigest()


# Band counts, cube counts and epoch caps are sized so one pass takes about
# 45 s on a 2-CPU machine with one BLAS thread, and so that each workload
# keeps the property it was chosen for: lossless-textured stays decode-bound
# by entropy and offset parsing; nearlossless-sparse stays LM-bound on encode
# (12 epochs for realistic quality; 4 gave 26 dB), first-band-Huffman-bound on
# decode, and keeps offsets under 10% of pixels (lambda 0.01 puts 84% of
# pixels under offsets). There is no params-only workload (compensation
# off): it would load the same layers as nearlossless-sparse, and with two
# workloads each run is long enough to ride out the host's speed swings.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="lossless-textured",
            why="lambda 0 on textured bands: dense offsets, decode is entropy and offset parsing",
            texture=12.0,
            bands=3,
            cubes=18,
            decodes=2,
            epochs=2,
            init_range=1.0,
            lam=0.0,
            pinned_sha256="777d83225b42b537f7309e322f5f91b38306560edbea4306115ed12c095f6c9d",
        ),
        Workload(
            name="nearlossless-sparse",
            why="lambda 0.05 on smooth bands: LM-bound encode, first-band-bound decode, sparse offsets; rate hinges on prediction quality",
            texture=3.0,
            bands=2,
            cubes=10,
            decodes=6,
            epochs=12,
            init_range=0.3,
            lam=0.05,
            pinned_sha256="bd908a07332404caa04ea2a097ce755d7b79591defa05df914574e156202fffd",
        ),
    ]
}
