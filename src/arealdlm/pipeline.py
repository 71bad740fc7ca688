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
class ModelStructures:
    """Everything derivable from the config without observations."""

    graph: ArealGraph
    design_set: DesignSet
    basis: BasisSystem
    prior: PriorStructure


def build_structures(cfg: RunConfig) -> ModelStructures:
    units = scan_units(cfg.covariates, cfg.design.p)
    graph = build_adjacency(cfg.edges, units)
    design_set = assemble_design(cfg.covariates, cfg.design, graph)
    basis = build_basis_system(design_set)
    prior = build_prior_structure(
        design_set,
        basis,
        form=cfg.prior_form,
        pooled=cfg.pooled,
        eps=cfg.epsilon,
    )
    return ModelStructures(graph, design_set, basis, prior)


def load_data(
    cfg: RunConfig,
    structures: ModelStructures,
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
