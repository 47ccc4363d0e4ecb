"""Run manifests: the crash-surviving ledger of a campaign.

A campaign is an ordered list of specs plus, for each, where it stands:
``pending`` / ``running`` / ``done`` / ``errored`` / ``timed_out`` /
``poisoned``.  A :class:`~repro.experiments.engine.SweepEngine` given a
``campaign_dir`` checkpoints this ledger to one JSON file (atomic tmp +
``os.replace``, like every archive in this repo) after every settled
point, so the file on disk is *always* a consistent snapshot -- kill the
campaign at any instant and re-running the same ``repro sweep ...
--manifest-dir DIR`` command picks up from the last checkpoint,
re-executing nothing that already settled.

The on-disk shape is the results schema's :class:`~repro.report.schema.
CampaignRecord` (kind ``repro-campaign``), so ``load_record`` sniffs
manifests like any other artifact and the report's run-health page can
roll them up.  ``done`` points carry their slim result dict *inline*:
a resume does not depend on the sweep cache (which may be disabled, as
it is for chaos campaigns) to reproduce the settled portion.

Two safety latches guard a resume:

* **Spec identity.**  The manifest stores every spec dict and its content
  hash; a different grid (any hash mismatch, any length mismatch) is
  refused -- the engine starts the ledger over -- rather than silently
  mixing campaigns.
* **Code identity.**  The manifest stores the
  :func:`~repro.experiments.engine.code_version` it ran under; resuming
  under different code invalidates the settled results (the simulator
  changed -- results may differ), so the campaign starts over.

The engine imports this module only for a sweep with a ``campaign_dir``,
so a sweep without one never loads the reporting package.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..report.schema import (
    CAMPAIGN_POINT_STATES,
    CampaignRecord,
    load_record,
    write_record_atomic,
)
from .engine import code_version
from .spec import ExperimentSpec


def campaign_id_for(specs: Iterable[ExperimentSpec]) -> str:
    """A deterministic campaign id: hash of the ordered spec hashes.
    Re-issuing the same campaign produces the same id (and therefore the
    same manifest path), which is what makes re-running ``repro sweep
    --manifest-dir`` resume after a crash."""
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(spec.content_hash().encode())
        digest.update(b"\0")
    return digest.hexdigest()[:12]


class ManifestMismatch(ValueError):
    """A manifest cannot be resumed against the offered campaign."""


@dataclass
class PointState:
    """One spec's position in the campaign ledger."""

    index: int
    spec_hash: Optional[str]
    label: str
    state: str = "pending"
    attempts: int = 0
    worker_deaths: int = 0
    error: Optional[str] = None
    #: Slim result dict, inline, once the point is ``done``.
    result: Optional[Dict] = None

    def __post_init__(self) -> None:
        if self.state not in CAMPAIGN_POINT_STATES:
            raise ValueError(
                f"unknown point state {self.state!r}; "
                f"choose from {CAMPAIGN_POINT_STATES}"
            )

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "spec_hash": self.spec_hash,
            "label": self.label,
            "state": self.state,
            "attempts": self.attempts,
            "worker_deaths": self.worker_deaths,
            "error": self.error,
            "result": self.result,
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "PointState":
        return cls(
            index=int(doc.get("index", 0)),
            spec_hash=doc.get("spec_hash"),
            label=doc.get("label", ""),
            state=doc.get("state", "pending"),
            attempts=int(doc.get("attempts", 0)),
            worker_deaths=int(doc.get("worker_deaths", 0)),
            error=doc.get("error"),
            result=doc.get("result"),
        )


class RunManifest:
    """The live ledger behind one campaign's manifest file."""

    def __init__(
        self,
        campaign_id: str,
        policy: Dict,
        specs: List[Dict],
        points: List[PointState],
        path: Optional[Path] = None,
        created: str = "",
        code: Optional[str] = None,
    ):
        self.campaign_id = campaign_id
        self.policy = dict(policy)
        self.specs = specs
        self.points = points
        self.path = Path(path) if path is not None else None
        self.created = created or time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
        self.code_version = code if code is not None else code_version()

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def new(
        cls,
        campaign_id: str,
        specs: List[ExperimentSpec],
        policy: Dict,
        path: Optional[Path] = None,
    ) -> "RunManifest":
        spec_dicts = [spec.to_dict() for spec in specs]
        points = [
            PointState(
                index=index,
                spec_hash=spec.content_hash(),
                label=spec.label or spec.describe(),
            )
            for index, spec in enumerate(specs)
        ]
        return cls(campaign_id, dict(policy), spec_dicts, points, path=path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        record = load_record(Path(path))
        if not isinstance(record, CampaignRecord):
            raise ManifestMismatch(
                f"{path}: not a campaign manifest "
                f"(got {type(record).__name__})"
            )
        return cls(
            campaign_id=record.campaign_id,
            policy=record.policy,
            specs=record.specs,
            points=[PointState.from_dict(p) for p in record.points],
            path=Path(path),
            created=record.created,
            code=record.code_version,
        )

    def checkpoint(self, stats: Optional[Dict] = None) -> None:
        """Atomically persist the current ledger (no-op without a path)."""
        if stats is not None:
            self._stats = dict(stats)
        if self.path is None:
            return
        write_record_atomic(self.path, self.record())

    # ------------------------------------------------------------- queries
    def record(self) -> CampaignRecord:
        return CampaignRecord(
            campaign_id=self.campaign_id,
            created=self.created,
            code_version=self.code_version,
            policy=dict(self.policy),
            specs=self.specs,
            points=[p.to_dict() for p in self.points],
            stats=dict(getattr(self, "_stats", {})),
        )

    def verify_resumable(self, specs: List[ExperimentSpec]) -> None:
        """Raise :class:`ManifestMismatch` unless this manifest describes
        exactly the offered campaign, run under the current code."""
        if len(specs) != len(self.points):
            raise ManifestMismatch(
                f"manifest {self.campaign_id!r} holds {len(self.points)} "
                f"point(s) but the campaign offers {len(specs)}"
            )
        for point, spec in zip(self.points, specs):
            spec_hash = spec.content_hash()
            if point.spec_hash != spec_hash:
                raise ManifestMismatch(
                    f"manifest {self.campaign_id!r} point {point.index} "
                    f"({point.label!r}) hashes {point.spec_hash!r}, the "
                    f"offered spec hashes {spec_hash!r}: different campaign"
                )
        if self.code_version != code_version():
            raise ManifestMismatch(
                f"manifest {self.campaign_id!r} ran under code "
                f"{self.code_version[:12]}, current is "
                f"{code_version()[:12]}: settled results are stale"
            )
