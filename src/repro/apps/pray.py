"""P-Ray: scene-passing parallel ray tracer with software caching.

The scene's objects are distributed evenly over the processors
(standing in for the paper's distributed read-only spatial octree);
pixels are divided evenly too.  Tracing a ray means visiting a
deterministic sequence of candidate objects; an object owned remotely is
fetched with a blocking bulk get (a short read request answered by a
bulk reply -- which is why Table 4 shows P-Ray at ~96% reads *and* ~48%
bulk messages) and kept in a fixed-size software-managed cache.

Object popularity follows a Zipf-like law, so a few "hot" objects are
fetched by everybody -- the dark hot-spot columns of Figure 4f and the
source of P-Ray's communication imbalance.
"""

from __future__ import annotations

from typing import Generator, List

import numpy as np

from repro.apps.base import Application
from repro.gas.cache import SoftwareCache
from repro.gas.runtime import Proc

__all__ = ["PRay"]

#: Wire bytes per fetched object (geometry + shading record).  Table 4
#: implies ~110 bytes per P-Ray bulk message (358 KB/s over ~3.2 bulk
#: messages per ms).
OBJECT_BYTES = 128


class PRay(Application):
    """The ray tracer.

    Parameters
    ----------
    pixels_per_proc:
        Rays traced by each processor.
    n_objects:
        Scene objects, distributed cyclically over processors.
    """

    name = "P-Ray"

    #: Candidate objects each ray tests.
    objects_per_ray = 8
    #: Capacity of the per-processor software cache (LRU).
    cache_objects = 32
    #: Zipf exponent for object popularity (hot spots).
    zipf_s = 1.2

    def __init__(self, pixels_per_proc: int = 48,
                 n_objects: int = 256) -> None:
        if min(pixels_per_proc, n_objects) < 1:
            raise ValueError("pixels_per_proc and n_objects must be >= 1")
        self.pixels_per_proc = pixels_per_proc
        self.n_objects = n_objects
        self._object_data: np.ndarray = np.empty(0)
        self._ray_objects: np.ndarray = np.empty((0, 0), dtype=np.int64)
        self._n_nodes = 0

    @classmethod
    def scaled(cls, scale: float = 1.0) -> "PRay":
        return cls(pixels_per_proc=max(16, int(48 * scale)),
                   n_objects=max(64, int(256 * scale)))

    # -- input -----------------------------------------------------------------
    def configure(self, n_nodes: int, seed: int) -> None:
        self._n_nodes = n_nodes
        rng = np.random.RandomState(seed + 0xFACE)
        self._object_data = rng.uniform(0.5, 2.0, self.n_objects)
        # Zipf-like popularity: ray->object hits concentrate on low ids.
        total_rays = n_nodes * self.pixels_per_proc
        weights = 1.0 / np.arange(1, self.n_objects + 1) ** self.zipf_s
        weights /= weights.sum()
        self._ray_objects = rng.choice(
            self.n_objects, size=(total_rays, self.objects_per_ray),
            p=weights)

    def setup_rank(self, proc: Proc) -> Generator:
        # Block division: "processors evenly divide ownership of objects
        # in the scene".  Popular low-id objects therefore concentrate
        # on the low ranks — the paper's hot spots.
        scene = proc.allocate(self.n_objects, name="pray_scene",
                              layout="block", dtype="float64",
                              item_bytes=OBJECT_BYTES)
        local = proc.local(scene)
        start = scene.local_start(proc.rank)
        local[:] = self._object_data[start:start + len(local)]
        proc.state["pray"] = {
            "scene": scene,
            "cache": SoftwareCache(scene, self.cache_objects),
            "image": [],
        }
        return
        yield  # pragma: no cover

    # -- the timed program ---------------------------------------------------------
    def run_rank(self, proc: Proc) -> Generator:
        state = proc.state["pray"]
        scene = state["scene"]
        first_ray = proc.rank * self.pixels_per_proc
        for ray in range(first_ray, first_ray + self.pixels_per_proc):
            shade = 0.0
            for object_id in self._ray_objects[ray]:
                object_id = int(object_id)
                value = yield from self._fetch(proc, state, scene,
                                               object_id)
                # Intersection test against the object's patch set plus
                # shading arithmetic: tens of microseconds per candidate
                # object on the 167 MHz host.
                shade += value / (1.0 + (ray % 7))
                yield from proc.compute(proc.cost.ops(1500))
            state["image"].append((ray, shade))

    def _fetch(self, proc: Proc, state: dict, scene,
               object_id: int) -> Generator:
        """Local read, cache hit, or a bulk-get miss with LRU insert —
        all through the shared software-cache component."""
        value = yield from state["cache"].read(proc, object_id)
        return float(value)

    # -- results ----------------------------------------------------------------
    def finalize(self, procs: List[Proc]) -> np.ndarray:
        pixels = {}
        for proc in procs:
            for ray, shade in proc.state["pray"]["image"]:
                pixels[ray] = shade
        total_rays = self._n_nodes * self.pixels_per_proc
        image = np.asarray([pixels[r] for r in range(total_rays)])
        expected = self._reference_image()
        if not np.allclose(image, expected, rtol=1e-9):
            raise AssertionError("P-Ray image differs from the "
                                 "sequential reference")
        return image

    def _reference_image(self) -> np.ndarray:
        total_rays = self._n_nodes * self.pixels_per_proc
        image = np.zeros(total_rays)
        for ray in range(total_rays):
            for object_id in self._ray_objects[ray]:
                image[ray] += self._object_data[int(object_id)] \
                    / (1.0 + (ray % 7))
        return image
