"""Wiring from a run configuration to fitted structures.

The covariate file defines the prediction locations and the unit universe
(first-seen order); the edge file defines adjacency among those units; the
observation file must live inside the prediction set.

``fit`` builds the structures once and stores the design and the basis, and
each chain's observations next to it; ``predict`` and ``rls`` digest their
inputs once, then open a fitted run through ``load_design_structures`` (the
design and the basis from ``structures.npz``; no input file is read) and
``load_chain`` (one chain and the observations it was fitted to). sha256
digests of the inputs tie the stored structures and a chain to the files and
settings they came from, so the stored copies are what parsing the inputs
again would give, and a changed input is refused.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .basis import BasisSystem, build_basis_system
from .chainio import (
    STRUCTURES_FILE,
    StoredChain,
    read_chain,
    read_observations,
    read_structures,
)
from .config import RunConfig
from .data import (
    AlignedData,
    DesignSet,
    ObservationSet,
    align_observations,
    assemble_design,
    load_observations,
)
from .errors import ChainStateError, MissingInputError
from .prior import PriorStructure, build_prior_structure

# the inputs of a fit; the graph, the design and the basis depend on the first three
DESIGN_INPUTS = ("covariates", "edges", "[design]")
INPUTS = DESIGN_INPUTS + ("observations", "[transforms]")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_sha256(value) -> str:
    return _sha256(json.dumps(value, sort_keys=True).encode())


def _file_sha256(path: Path) -> str:
    """sha256 of a file's bytes, read in blocks rather than whole."""
    if not path.exists():
        raise MissingInputError(f"input file not found: {path}")
    with path.open("rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


@dataclass(frozen=True)
class InputDigests:
    """sha256 of every input of a fit: file bytes, or the parsed config section.

    ``sha256`` and ``sources`` are keyed by the names of ``INPUTS``;
    ``sources`` says what to call each input in a message.
    """

    sha256: dict[str, str]
    sources: dict[str, str]

    def record(self, names: tuple[str, ...] = INPUTS) -> dict[str, str]:
        """The sha256 of each named input, as stored with a chain or the structures."""
        return {n: self.sha256[n] for n in names}

    def for_observations(self, path: Path) -> InputDigests:
        """These digests with ``path`` as the observation file; only that file is read."""
        return InputDigests(
            {**self.sha256, "observations": _file_sha256(Path(path))},
            {**self.sources, "observations": str(path)},
        )

    def check(self, recorded: dict, what: str, names: tuple[str, ...] = INPUTS) -> None:
        """Refuse ``what`` (ChainStateError) when a named input's sha256 differs from ``recorded``."""
        changed = [self.sources[n] for n in names if recorded.get(n) != self.sha256[n]]
        if changed:
            raise ChainStateError(
                f"{' and '.join(changed)} changed since {what} was written; run fit again"
            )


def input_digests(cfg: RunConfig) -> InputDigests:
    """Digests of the config's inputs."""
    files = {"covariates": cfg.covariates, "edges": cfg.edges, "observations": cfg.observations}
    settings = {
        "[design]": asdict(cfg.design),
        "[transforms]": {str(ell): spec.kind for ell, spec in sorted(cfg.transforms.items())},
    }
    sha256 = {name: _file_sha256(path) for name, path in files.items()}
    sources = {name: str(path) for name, path in files.items()}
    for name, parsed in settings.items():
        sha256[name] = _json_sha256(parsed)
        sources[name] = f"the {name} settings"
    return InputDigests(sha256, sources)


@dataclass(frozen=True)
class DesignStructures:
    """Stacked design (with its graph) and basis: what prediction and scoring read."""

    design_set: DesignSet
    basis: BasisSystem


@dataclass(frozen=True)
class ModelStructures(DesignStructures):
    """Everything derivable from the config without observations."""

    prior: PriorStructure


def build_design_structures(cfg: RunConfig) -> DesignStructures:
    design_set = assemble_design(cfg.covariates, cfg.design, cfg.edges)
    return DesignStructures(design_set, build_basis_system(design_set))


def load_design_structures(
    cfg: RunConfig, chain_dir: Path, inputs: InputDigests
) -> DesignStructures:
    """The design and the basis ``fit`` stored next to ``chain_dir``.

    ``inputs`` are the digests of ``cfg``'s inputs, taken before the run is
    opened, so a missing input file is a MissingInputError even when the run
    is missing too. A missing store, one of another format version, and one
    built from other covariates, edges or [design] settings are each a
    ChainStateError.
    """
    path = Path(chain_dir).parent / STRUCTURES_FILE
    stored = read_structures(path)
    inputs.check(stored.inputs, str(path), DESIGN_INPUTS)
    return DesignStructures(stored.design_set(cfg.design), stored.basis)


def build_structures(cfg: RunConfig) -> ModelStructures:
    base = build_design_structures(cfg)
    prior = build_prior_structure(
        base.design_set,
        base.basis,
        form=cfg.prior_form,
        pooled=cfg.pooled,
        eps=cfg.epsilon,
    )
    return ModelStructures(base.design_set, base.basis, prior)


def load_data(cfg: RunConfig, structures: DesignStructures) -> tuple[ObservationSet, AlignedData]:
    """Load (and transform) the observation file of ``cfg`` against the built structures."""
    obs = load_observations(
        cfg.observations,
        cfg.design,
        transforms=cfg.transforms,
        design_set=structures.design_set,
    )
    return obs, align_observations(structures.design_set, obs)


def load_chain(chain_dir: Path, inputs: InputDigests) -> tuple[StoredChain, AlignedData]:
    """A fitted chain and the observations it was fitted to, as ``load_data`` aligned them.

    A chain fitted to inputs other than ``inputs`` is a ChainStateError.
    """
    chain = read_chain(chain_dir)
    inputs.check(chain.meta.get("input_sha256", {}), f"the chain at {chain_dir}")
    return chain, read_observations(chain)
