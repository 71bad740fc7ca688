"""Wiring from a run configuration to fitted structures.

The covariate file defines the prediction locations and the unit universe
(first-seen order); the edge file defines adjacency among those units; the
observation file must live inside the prediction set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .basis import BasisSystem, build_basis_system
from .config import RunConfig
from .data import (
    AlignedData,
    ArealGraph,
    DesignSet,
    ObservationSet,
    align_observations,
    assemble_design,
    build_adjacency,
    load_observations,
    scan_units,
)
from .prior import PriorStructure, build_prior_structure


@dataclass(frozen=True)
class DesignStructures:
    """Graph, stacked design and basis: what prediction and scoring read."""

    graph: ArealGraph
    design_set: DesignSet
    basis: BasisSystem


@dataclass(frozen=True)
class ModelStructures(DesignStructures):
    """Everything derivable from the config without observations."""

    prior: PriorStructure


def build_design_structures(cfg: RunConfig) -> DesignStructures:
    units = scan_units(cfg.covariates, cfg.design.p)
    graph = build_adjacency(cfg.edges, units)
    design_set = assemble_design(cfg.covariates, cfg.design, graph)
    return DesignStructures(graph, design_set, build_basis_system(design_set))


def build_structures(cfg: RunConfig) -> ModelStructures:
    base = build_design_structures(cfg)
    prior = build_prior_structure(
        base.design_set,
        base.basis,
        form=cfg.prior_form,
        pooled=cfg.pooled,
        eps=cfg.epsilon,
    )
    return ModelStructures(base.graph, base.design_set, base.basis, prior)


def load_data(
    cfg: RunConfig,
    structures: DesignStructures,
    observations_path=None,
) -> tuple[ObservationSet, AlignedData]:
    """Load (and transform) an observation file against the built structures."""
    obs = load_observations(
        observations_path or cfg.observations,
        cfg.design,
        transforms=cfg.transforms,
        design_set=structures.design_set,
    )
    return obs, align_observations(structures.design_set, obs)
