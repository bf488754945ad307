"""Reproducible experiment configurations.

An :class:`ExperimentConfig` captures everything that determines a run
— machine parameters, dials, cluster shape, application and its inputs,
and the seed — and round-trips through JSON, so any measurement in a
paper or bug report can be re-run from a one-line file:

    config = ExperimentConfig.from_json(path.read_text())
    result = config.build_cluster().run(config.build_app())
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.am.tuning import TuningKnobs
from repro.apps import (Barnes, Connect, EM3D, Murphi, NowSort, PRay,
                        RadixBulk, RadixSort, SampleSort)
from repro.cluster.machine import Cluster
from repro.cluster.node import CostModel
from repro.harness.runcache import app_fingerprint
from repro.network.loggp import LogGPParams

__all__ = ["ExperimentConfig", "APP_REGISTRY"]

#: Constructable application classes by Table 3 row label.  EM3D's two
#: variants share a class, selected by its ``variant`` kwarg.
APP_REGISTRY = {
    "Radix": RadixSort,
    "EM3D": EM3D,
    "Sample": SampleSort,
    "Barnes": Barnes,
    "P-Ray": PRay,
    "Murphi": Murphi,
    "Connect": Connect,
    "NOW-sort": NowSort,
    "Radb": RadixBulk,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified run."""

    app_name: str
    app_kwargs: Dict[str, Any] = field(default_factory=dict)
    n_nodes: int = 32
    seed: int = 0
    window: int = 8
    window_scope: str = "per-destination"
    fabric: str = "flat"
    params: Dict[str, float] = field(default_factory=dict)
    knobs: Dict[str, float] = field(default_factory=dict)
    cost: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.app_name not in APP_REGISTRY:
            known = ", ".join(sorted(APP_REGISTRY))
            raise KeyError(
                f"unknown application {self.app_name!r}; known: {known}")

    # -- construction ------------------------------------------------------
    def build_params(self) -> LogGPParams:
        """The machine's LogGP parameters (NOW baseline if unset)."""
        return LogGPParams(**self.params) if self.params \
            else LogGPParams.berkeley_now()

    def build_knobs(self) -> TuningKnobs:
        """The apparatus dials."""
        return TuningKnobs(**self.knobs)

    def build_cost(self) -> CostModel:
        """The host CPU cost model."""
        return CostModel(**self.cost)

    def build_cluster(self) -> Cluster:
        """Assemble the configured cluster."""
        return Cluster(n_nodes=self.n_nodes,
                       params=self.build_params(),
                       knobs=self.build_knobs(),
                       window=self.window,
                       window_scope=self.window_scope,
                       fabric=self.fabric,
                       cost=self.build_cost(),
                       seed=self.seed)

    def build_app(self):
        """Instantiate the configured application."""
        return APP_REGISTRY[self.app_name](**self.app_kwargs)

    def run(self):
        """Build and execute in one step."""
        return self.build_cluster().run(self.build_app())

    # -- serialisation -------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        """Serialise to a stable, human-diffable JSON document."""
        return json.dumps(dataclasses.asdict(self), indent=indent,
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(
                f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_run(cls, app, cluster: Cluster) -> "ExperimentConfig":
        """Capture an app instance + cluster as a config.

        Application kwargs are the constructor parameters the instance
        carries as attributes — the run cache's
        :func:`~repro.harness.runcache.app_fingerprint`.
        """
        names = [name for name, _cls in APP_REGISTRY.items()
                 if _cls is type(app)]
        if not names:
            raise KeyError(f"{type(app).__name__} is not registered")
        kwargs = app_fingerprint(app)["kwargs"]
        return cls(
            app_name=names[0],
            app_kwargs=kwargs,
            n_nodes=cluster.n_nodes,
            seed=cluster.seed,
            window=cluster.window,
            window_scope=cluster.window_scope,
            fabric=cluster.fabric,
            params=dataclasses.asdict(cluster.params),
            knobs=dataclasses.asdict(cluster.knobs),
            cost=dataclasses.asdict(cluster.cost),
        )
